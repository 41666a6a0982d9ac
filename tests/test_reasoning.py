"""Reasoning trees: matching semantics, parser soundness, serialization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from refsynth.balance import relation_weights
from refsynth.errors import SchemaViolation
from refsynth.expression import default_attribute_lexicon
from refsynth.reasoning import (
    DIRECTIONS,
    SAME_ATTRIBUTE_CATEGORIES,
    LogicForm,
    OrderSpec,
    ReasoningTree,
    TreeEdge,
    TreeNode,
    _pick_edge,
    compose,
    match,
    parse_and_or,
    parse_chain,
    parse_not,
    parse_order,
    parse_same,
    tree_from_jsonable,
    tree_to_jsonable,
    validate_tree,
)
from refsynth.scene_graph import BoundingBox, Corpus, target_exclusion_reason
from refsynth.util import derive_rng

from .conftest import TARGET_RULE, box, build_graph
from .oracles import binomial_sigma, brute_force_match

LEXICON = default_attribute_lexicon()

CATEGORIES = ("book", "cup", "dog", "table")
ATTRIBUTES = ("blue", "red", "round", "wooden")
PREDICATES = ("holding", "near", "on")


@st.composite
def graphs(draw):
    count = draw(st.integers(2, 7))
    objects = {}
    for i in range(count):
        category = draw(st.sampled_from(CATEGORIES))
        attrs = tuple(draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=3, unique=True)))
        b = BoundingBox(
            x=draw(st.integers(0, 500)),
            y=draw(st.integers(0, 380)),
            w=draw(st.integers(40, 140)),
            h=draw(st.integers(40, 100)),
        )
        objects[f"o{i}"] = (category, attrs, b)
    ids = sorted(objects)
    edges = set()
    for _ in range(draw(st.integers(0, 10))):
        subject = draw(st.sampled_from(ids))
        target = draw(st.sampled_from(ids))
        if subject == target:
            continue
        edges.add((subject, draw(st.sampled_from(PREDICATES)), target))
    return build_graph("img", objects, sorted(edges))


@st.composite
def child_nodes(draw):
    attrs = tuple(draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=1)))
    return TreeNode(draw(st.sampled_from(CATEGORIES)), attrs)


@st.composite
def trees(draw, form=None):
    if form is None:
        form = draw(st.sampled_from(list(LogicForm)))
    category = draw(st.sampled_from(CATEGORIES))
    attrs = tuple(draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=2, unique=True)))
    if form is LogicForm.CHAIN:
        extension = None
        if draw(st.booleans()):
            extension = TreeEdge.relation(draw(st.sampled_from(PREDICATES)), draw(child_nodes()))
        return ReasoningTree(
            form=form,
            root=TreeNode(category, attrs),
            edges=(TreeEdge.relation(draw(st.sampled_from(PREDICATES)), draw(child_nodes())),),
            chain_extension=extension,
        )
    if form in (LogicForm.AND, LogicForm.OR):
        return ReasoningTree(
            form=form,
            root=TreeNode(category, attrs),
            edges=(
                TreeEdge.relation(draw(st.sampled_from(PREDICATES)), draw(child_nodes())),
                TreeEdge.relation(draw(st.sampled_from(PREDICATES)), draw(child_nodes())),
            ),
            junction=form.value,
        )
    if form is LogicForm.ORDER:
        edges = ()
        if draw(st.booleans()):
            edges = (TreeEdge.relation(draw(st.sampled_from(PREDICATES)), draw(child_nodes())),)
        spec = OrderSpec(index=draw(st.integers(1, 4)), direction=draw(st.sampled_from(DIRECTIONS)))
        return ReasoningTree(form=form, root=TreeNode(category, attrs, order_spec=spec), edges=edges)
    if form is LogicForm.SAME:
        return ReasoningTree(
            form=form,
            root=TreeNode(category),
            edges=(TreeEdge.same(draw(st.sampled_from(SAME_ATTRIBUTE_CATEGORIES)), draw(child_nodes())),),
        )
    negated = tuple(draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=2, unique=True)))
    edges = ()
    if draw(st.booleans()):
        edges = (TreeEdge.relation(draw(st.sampled_from(PREDICATES)), draw(child_nodes())),)
    return ReasoningTree(form=form, root=TreeNode(category, attrs, negated_attributes=negated), edges=edges)


class TestMatchAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(graphs(), trees())
    def test_match_agrees_with_independent_reimplementation(self, graph, tree):
        validate_tree(tree)
        assert match(tree, graph, LEXICON) == brute_force_match(tree, graph, LEXICON)

    def test_same_form_requires_a_lexicon(self):
        graph = build_graph("img", {"o1": ("bag", ("red",), box())})
        tree = ReasoningTree(
            form=LogicForm.SAME,
            root=TreeNode("bag"),
            edges=(TreeEdge.same("colour", TreeNode("sweater")),),
        )
        with pytest.raises(ValueError):
            match(tree, graph)


class TestOrderSemantics:
    def _row(self):
        objects = {f"c{i}": ("cup", (), box(x=120 * i)) for i in range(4)}
        objects["d0"] = ("dog", (), box(x=300, y=200))
        return build_graph("img", objects)

    def _order_tree(self, index, direction):
        return ReasoningTree(
            form=LogicForm.ORDER,
            root=TreeNode("cup", order_spec=OrderSpec(index=index, direction=direction)),
        )

    def test_left_ranks(self):
        graph = self._row()
        assert match(self._order_tree(1, "left"), graph) == {"c0"}
        assert match(self._order_tree(3, "left"), graph) == {"c2"}
        assert match(self._order_tree(5, "left"), graph) == set()

    def test_right_ranks(self):
        graph = self._row()
        assert match(self._order_tree(1, "right"), graph) == {"c3"}
        assert match(self._order_tree(4, "right"), graph) == {"c0"}

    @given(graphs(), st.integers(1, 7))
    def test_rank_from_right_mirrors_rank_from_left(self, graph, index):
        category = graph.nodes[0].category
        total = len(graph.nodes_of_category(category))
        if index > total:
            return
        left = match(self._order_tree_for(category, index, "left"), graph)
        right = match(self._order_tree_for(category, total - index + 1, "right"), graph)
        assert left == right
        assert len(left) == 1

    def _order_tree_for(self, category, index, direction):
        return ReasoningTree(
            form=LogicForm.ORDER,
            root=TreeNode(category, order_spec=OrderSpec(index=index, direction=direction)),
        )

    def test_ties_break_by_object_id(self):
        objects = {
            "a": ("cup", (), box(x=100)),
            "b": ("cup", (), box(x=100)),
        }
        graph = build_graph("img", objects)
        assert match(self._order_tree(1, "left"), graph) == {"a"}
        assert match(self._order_tree(2, "left"), graph) == {"b"}


class TestSameSemantics:
    def test_pair_exclusivity_is_scoped_to_the_two_categories(self):
        graph = build_graph(
            "img",
            {
                "b1": ("bag", ("red",), box(x=0)),
                "s1": ("sweater", ("red",), box(x=100)),
                "c1": ("cup", ("red",), box(x=200)),
            },
        )
        tree = ReasoningTree(
            form=LogicForm.SAME,
            root=TreeNode("bag"),
            edges=(TreeEdge.same("colour", TreeNode("sweater")),),
        )
        assert match(tree, graph, LEXICON) == {"b1"}

    def test_third_holder_in_either_category_blocks_the_match(self):
        graph = build_graph(
            "img",
            {
                "b1": ("bag", ("red",), box(x=0)),
                "b2": ("bag", ("red",), box(x=50)),
                "s1": ("sweater", ("red",), box(x=100)),
            },
        )
        tree = ReasoningTree(
            form=LogicForm.SAME,
            root=TreeNode("bag"),
            edges=(TreeEdge.same("colour", TreeNode("sweater")),),
        )
        assert match(tree, graph, LEXICON) == set()

    def test_parse_requires_globally_exclusive_value(self):
        # A third holder outside the two categories blocks parsing but not
        # matching: parsers are conservative so the surface text stays honest.
        graph = build_graph(
            "img",
            {
                "b1": ("bag", ("red",), box(x=0)),
                "s1": ("sweater", ("red",), box(x=100)),
                "c1": ("cup", ("red",), box(x=200)),
            },
        )
        rng = random.Random(3)
        assert parse_same(graph, "b1", rng, lexicon=LEXICON) is None
        without_cup = build_graph(
            "img",
            {
                "b1": ("bag", ("red",), box(x=0)),
                "s1": ("sweater", ("red",), box(x=100)),
                "c1": ("cup", ("blue",), box(x=200)),
            },
        )
        tree = parse_same(without_cup, "b1", rng, lexicon=LEXICON)
        assert tree is not None
        assert match(tree, without_cup, LEXICON) == {"b1"}

    def test_partner_category_must_differ_from_root(self):
        graph = build_graph(
            "img",
            {
                "b1": ("bag", ("red",), box(x=0)),
                "b2": ("bag", ("red",), box(x=100)),
            },
        )
        assert parse_same(graph, "b1", random.Random(0), lexicon=LEXICON) is None


class TestNotSemantics:
    def test_negated_attribute_held_by_every_peer(self):
        graph = build_graph(
            "img",
            {
                "a1": ("apple", ("green",), box(x=0)),
                "a2": ("apple", ("red",), box(x=100)),
                "a3": ("apple", ("red", "shiny"), box(x=200)),
            },
        )
        tree = parse_not(graph, "a1", random.Random(0))
        assert tree is not None
        assert tree.root.negated_attributes == ("red",)
        assert match(tree, graph) == {"a1"}

    def test_no_tree_when_peers_share_nothing(self):
        graph = build_graph(
            "img",
            {
                "a1": ("apple", (), box(x=0)),
                "a2": ("apple", ("red",), box(x=100)),
                "a3": ("apple", ("green",), box(x=200)),
            },
        )
        assert parse_not(graph, "a1", random.Random(0)) is None

    def test_no_tree_without_peers(self):
        graph = build_graph("img", {"a1": ("apple", (), box())})
        assert parse_not(graph, "a1", random.Random(0)) is None


class TestChainParsing:
    def test_depth_must_be_one_or_two(self):
        graph = build_graph("img", {"o1": ("cup", (), box())})
        with pytest.raises(ValueError):
            parse_chain(graph, "o1", 3, random.Random(0))

    def test_depth_two_does_not_loop_back_to_target(self):
        graph = build_graph(
            "img",
            {
                "o1": ("cup", (), box(x=0)),
                "o2": ("table", (), box(x=100)),
            },
            edges=[("o1", "on", "o2"), ("o2", "near", "o1")],
        )
        # The only second hop returns to the target, so depth 2 must fail.
        assert parse_chain(graph, "o1", 2, random.Random(0)) is None

    def test_depth_two_builds_a_two_hop_chain(self):
        graph = build_graph(
            "img",
            {
                "o1": ("cup", (), box(x=0)),
                "o2": ("table", (), box(x=100)),
                "o3": ("dog", (), box(x=200)),
            },
            edges=[("o1", "on", "o2"), ("o2", "near", "o3")],
        )
        tree = parse_chain(graph, "o1", 2, random.Random(0))
        assert tree is not None
        assert tree.chain_extension is not None
        assert tree.chain_extension.child.category == "dog"
        assert match(tree, graph) == {"o1"}


class TestEdgeSampling:
    def test_generation_draws_edges_by_inverse_frequency(self):
        # The balancing gate's corpus: 100 "near" edges and 10 "holding" edges.
        objects = {f"n{i:03d}": ("block", (), box(x=i * 100, y=10, w=80, h=80)) for i in range(111)}
        edges = [(f"n{i:03d}", "near", f"n{i + 1:03d}") for i in range(100)]
        edges += [(f"n{i:03d}", "holding", f"n{i + 1:03d}") for i in range(100, 110)]
        graph = build_graph("w0", objects, edges, width=12000, height=200)
        weights = relation_weights(Corpus.build({"w0": graph})).weights
        pair = (graph.out_edges("n000")[0], graph.out_edges("n100")[0])
        assert [edge.predicate for edge in pair] == ["near", "holding"]

        draws = 100_000
        rng = random.Random(99)
        hits = sum(_pick_edge(rng, pair, weights).predicate == "near" for _ in range(draws))
        p = 1.0 / 11.0
        assert abs(hits / draws - p) <= 3.0 * binomial_sigma(p, draws)


class TestParserSoundness:
    """Every parser's output matches exactly its target, on every fixture region."""

    def _targets(self, corpus):
        for image_id, graph in corpus.graphs.items():
            for node in graph.nodes:
                if target_exclusion_reason(graph, node, *TARGET_RULE) is None:
                    yield image_id, graph, node.id

    def test_all_parsers_pin_their_target(self, corpus):
        weights = None
        produced = 0
        for image_id, graph, target in self._targets(corpus):
            rng = derive_rng(99, image_id, target)
            candidates = [
                parse_chain(graph, target, 1, rng, weights=weights),
                parse_chain(graph, target, 2, rng, weights=weights),
                parse_and_or(graph, target, "and", rng, weights=weights),
                parse_and_or(graph, target, "or", rng, weights=weights),
                parse_order(graph, target, rng, weights=weights),
                parse_same(graph, target, rng, lexicon=LEXICON),
                parse_not(graph, target, rng),
            ]
            for tree in candidates:
                if tree is None:
                    continue
                produced += 1
                validate_tree(tree)
                assert match(tree, graph, LEXICON) == {target}
                assert brute_force_match(tree, graph, LEXICON) == {target}
        assert produced > 100

    def test_compose_preserves_the_match_set(self, corpus):
        grown = 0
        for image_id, graph, target in self._targets(corpus):
            rng = derive_rng(7, image_id, target)
            tree = parse_order(graph, target, rng)
            if tree is None:
                continue
            for _ in range(3):
                bigger = compose(tree, graph, target, rng, lexicon=LEXICON)
                if bigger is None:
                    break
                assert match(bigger, graph, LEXICON) == {target}
                assert brute_force_match(bigger, graph, LEXICON) == {target}
                tree = bigger
                grown += 1
        assert grown > 20


@settings(max_examples=150, deadline=None)
@given(trees())
def test_round_trip_preserves_trees(tree):
    validate_tree(tree)
    assert tree_from_jsonable(tree_to_jsonable(tree)) == tree


def _not_tree(root=None, edges=None, predicate="near") -> dict:
    """A valid NOT-form tree record, with the given fields replaced."""
    root = {"category": "cup", "attributes": ["red"], "negated_attributes": ["blue"], **(root or {})}
    if edges is None:
        edges = [{"kind": "relation", "predicate": predicate, "child": {"category": "dog"}}]
    return {"form": "not", "root": root, "edges": edges}


def _order_tree(index) -> dict:
    """A valid ORDER-form tree record, with the given order index."""
    return {"form": "order", "root": {"category": "cup", "order": {"index": index, "direction": "left"}}}


class TestValidation:
    def test_bad_payload_rejected(self):
        with pytest.raises(SchemaViolation):
            tree_from_jsonable({"form": "chain"})

    def test_the_field_check_base_record_is_valid(self):
        tree = tree_from_jsonable(_not_tree())
        assert tree.root.attributes == ("red",) and tree.edges[0].predicate == "near"

    def test_the_order_index_base_record_is_valid(self):
        assert tree_from_jsonable(_order_tree(2)).root.order_spec == OrderSpec(index=2, direction="left")

    @pytest.mark.parametrize("record", [
        _not_tree(root={"category": ["x"]}),
        _not_tree(root={"category": ""}),
        _not_tree(root={"attributes": 5}),
        _not_tree(root={"attributes": "red"}),
        _not_tree(root={"attributes": ["red", 1]}),
        _not_tree(root={"negated_attributes": 7}),
        _not_tree(edges=5),
        _not_tree(edges=[{"kind": "relation", "predicate": "near", "child": {"category": 3}}]),
        _not_tree(predicate=""),
        _not_tree(predicate=["near"]),
        _order_tree(True),
        _order_tree(1.0),
    ], ids=["list-category", "empty-category", "int-attributes", "string-attributes",
            "int-in-attributes", "int-negated", "int-edges", "int-child-category",
            "empty-predicate", "list-predicate", "bool-order-index", "float-order-index"])
    def test_badly_typed_fields_are_rejected(self, record):
        with pytest.raises(SchemaViolation):
            tree_from_jsonable(record)

    @pytest.mark.parametrize(
        "tree",
        [
            ReasoningTree(form=LogicForm.CHAIN, root=TreeNode("cup")),
            ReasoningTree(
                form=LogicForm.AND,
                root=TreeNode("cup"),
                edges=(TreeEdge.relation("near", TreeNode("dog")),),
                junction="and",
            ),
            ReasoningTree(form=LogicForm.ORDER, root=TreeNode("cup")),
            ReasoningTree(form=LogicForm.NOT, root=TreeNode("cup")),
            ReasoningTree(
                form=LogicForm.SAME,
                root=TreeNode("cup"),
                edges=(TreeEdge.relation("near", TreeNode("dog")),),
            ),
            ReasoningTree(
                form=LogicForm.OR,
                root=TreeNode("cup"),
                edges=(
                    TreeEdge.relation("near", TreeNode("dog")),
                    TreeEdge.relation("on", TreeNode("table")),
                ),
                junction="and",
            ),
        ],
    )
    def test_structural_violations(self, tree):
        with pytest.raises(ValueError):
            validate_tree(tree)
