"""Reasoning trees: construction from scene graphs and semantic matching.

A reasoning tree is the logical skeleton an expression is rendered from: a
root node describing the target plus attribute, relation, ordering,
same-attribute, and negation constraints arranged by logic form.  ``match``
evaluates a tree against any scene graph and returns the satisfying object
ids; it is the single source of truth both for unambiguity at synthesis time
(the tree must match exactly the target in its own image) and for distractor
screening (the tree must match nothing in a distracting image).

Every parser samples candidate constraints with the caller's rng, then keeps
only trees whose match set is exactly the target, so a parser that returns a
tree has proven the expression unambiguous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .errors import SchemaViolation
from .scene_graph import ObjectNode, SceneGraph
from .util import weighted_choice


class LogicForm(str, Enum):
    """The closed set of logic forms an expression can take."""

    CHAIN = "chain"
    AND = "and"
    OR = "or"
    ORDER = "order"
    SAME = "same"
    NOT = "not"


SAME_ATTRIBUTE_CATEGORIES = ("colour", "shape", "material", "gender", "pattern")
DIRECTIONS = ("left", "right")

EDGE_RELATION = "relation"
EDGE_SAME = "same"


@dataclass(frozen=True)
class OrderSpec:
    """1-based rank of the target among same-category objects, by box center x."""

    index: int
    direction: str

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"order index must be >= 1, got {self.index}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"order direction must be left or right, got {self.direction!r}")


@dataclass(frozen=True)
class TreeNode:
    """One object slot in a reasoning tree."""

    category: str
    attributes: tuple[str, ...] = ()
    order_spec: OrderSpec | None = None
    negated_attributes: tuple[str, ...] = ()


@dataclass(frozen=True)
class TreeEdge:
    """Constraint linking a parent node to a child node.

    Two kinds exist: a directed relation carrying a predicate, and a
    same-attribute link carrying one of the closed attribute categories.
    """

    kind: str
    child: TreeNode
    predicate: str | None = None
    category: str | None = None

    def __post_init__(self) -> None:
        if self.kind == EDGE_RELATION:
            if not self.predicate:
                raise ValueError("relation edge requires a predicate")
            if self.category is not None:
                raise ValueError("relation edge must not carry an attribute category")
        elif self.kind == EDGE_SAME:
            if self.category not in SAME_ATTRIBUTE_CATEGORIES:
                raise ValueError(f"same-attribute edge category must be one of "
                                 f"{SAME_ATTRIBUTE_CATEGORIES}, got {self.category!r}")
            if self.predicate is not None:
                raise ValueError("same-attribute edge must not carry a predicate")
        else:
            raise ValueError(f"unknown edge kind {self.kind!r}")

    @classmethod
    def relation(cls, predicate: str, child: TreeNode) -> "TreeEdge":
        return cls(kind=EDGE_RELATION, child=child, predicate=predicate)

    @classmethod
    def same(cls, category: str, child: TreeNode) -> "TreeEdge":
        return cls(kind=EDGE_SAME, child=child, category=category)


@dataclass(frozen=True)
class ReasoningTree:
    """Root node plus edges, arranged by logic form.

    Structural invariants (checked by ``validate_tree``): chain trees have one
    relation edge and optionally one chained extension from the child; and/or
    trees have exactly two relation edges joined by their junction; order and
    not trees carry zero or one relation edge; same trees have exactly one
    same-attribute edge and nothing else.
    """

    form: LogicForm
    root: TreeNode
    edges: tuple[TreeEdge, ...] = ()
    chain_extension: TreeEdge | None = None
    junction: str = "none"


def validate_tree(tree: ReasoningTree) -> None:
    """Raise ValueError when a tree violates its form's structural rules."""
    form = tree.form
    relation_edges = [e for e in tree.edges if e.kind == EDGE_RELATION]
    same_edges = [e for e in tree.edges if e.kind == EDGE_SAME]
    if tree.root.order_spec is not None and form is not LogicForm.ORDER:
        raise ValueError(f"{form.value} tree must not carry an order spec")
    if tree.root.negated_attributes and form is not LogicForm.NOT:
        raise ValueError(f"{form.value} tree must not carry negated attributes")
    if tree.chain_extension is not None and form is not LogicForm.CHAIN:
        raise ValueError(f"{form.value} tree must not carry a chain extension")
    if same_edges and form is not LogicForm.SAME:
        raise ValueError(f"{form.value} tree must not carry same-attribute edges")
    expected_junction = form.value if form in (LogicForm.AND, LogicForm.OR) else "none"
    if tree.junction != expected_junction:
        raise ValueError(f"{form.value} tree must have junction {expected_junction!r}")

    if form is LogicForm.CHAIN:
        if len(relation_edges) != 1 or same_edges:
            raise ValueError("chain tree needs exactly one relation edge")
        if tree.chain_extension is not None and tree.chain_extension.kind != EDGE_RELATION:
            raise ValueError("chain extension must be a relation edge")
    elif form in (LogicForm.AND, LogicForm.OR):
        if len(relation_edges) != 2 or same_edges:
            raise ValueError(f"{form.value} tree needs exactly two relation edges")
    elif form in (LogicForm.ORDER, LogicForm.NOT):
        if len(relation_edges) > 1 or same_edges:
            raise ValueError(f"{form.value} tree allows at most one relation edge")
        if form is LogicForm.ORDER and tree.root.order_spec is None:
            raise ValueError("order tree requires an order spec")
        if form is LogicForm.NOT and not tree.root.negated_attributes:
            raise ValueError("not tree requires at least one negated attribute")
    elif form is LogicForm.SAME:
        if len(same_edges) != 1 or relation_edges:
            raise ValueError("same tree needs exactly one same-attribute edge and no relations")


def tree_nodes(tree: ReasoningTree) -> tuple[TreeNode, ...]:
    """All nodes of a tree: root, edge children, chain grandchild."""
    nodes = [tree.root, *[e.child for e in tree.edges]]
    if tree.chain_extension is not None:
        nodes.append(tree.chain_extension.child)
    return tuple(nodes)


def tree_categories(tree: ReasoningTree) -> tuple[str, ...]:
    """Distinct object categories mentioned by a tree, in node order."""
    seen: dict[str, None] = {}
    for node in tree_nodes(tree):
        seen.setdefault(node.category, None)
    return tuple(seen)


# ---------------------------------------------------------------------------
# Matching


def _node_satisfied(obj: ObjectNode, spec: TreeNode) -> bool:
    return obj.category == spec.category and set(spec.attributes) <= obj.attribute_set


def _relation_satisfied(
    graph: SceneGraph,
    subject: ObjectNode,
    edge: TreeEdge,
    extension: TreeEdge | None = None,
) -> bool:
    for rel in graph.out_edges(subject.id):
        if rel.predicate != edge.predicate:
            continue
        child = graph.node(rel.object)
        if not _node_satisfied(child, edge.child):
            continue
        if extension is None or _relation_satisfied(graph, child, extension):
            return True
    return False


def _same_satisfied(
    graph: SceneGraph,
    obj: ObjectNode,
    edge: TreeEdge,
    lexicon: Mapping[str, str],
) -> bool:
    """Shared attribute of the edge's category, exclusive to the pair.

    The pair-exclusivity check runs over objects of the two categories
    involved: no third object of either category may carry the shared value.
    """
    for peer in graph.nodes_of_category(edge.child.category):
        if peer.id == obj.id or not _node_satisfied(peer, edge.child):
            continue
        shared = [
            value
            for value in obj.attributes
            if value in peer.attribute_set and lexicon.get(value) == edge.category
        ]
        if not shared:
            continue
        fellows = {n.id: n for n in graph.nodes_of_category(obj.category)}
        fellows.update({n.id: n for n in graph.nodes_of_category(peer.category)})
        for value in shared:
            if all(
                other_id in (obj.id, peer.id) or value not in other.attribute_set
                for other_id, other in fellows.items()
            ):
                return True
    return False


def _order_satisfied(graph: SceneGraph, obj: ObjectNode, spec: OrderSpec) -> bool:
    ordered = graph.category_order(obj.category)
    position = ordered.index(obj.id)
    if spec.direction == "left":
        return position + 1 == spec.index
    return len(ordered) - position == spec.index


def _satisfies(tree: ReasoningTree, obj: ObjectNode, graph: SceneGraph,
               lexicon: Mapping[str, str] | None) -> bool:
    root = tree.root
    if not _node_satisfied(obj, root):
        return False
    if root.negated_attributes and any(a in obj.attribute_set for a in root.negated_attributes):
        return False
    if root.order_spec is not None and not _order_satisfied(graph, obj, root.order_spec):
        return False

    if tree.form is LogicForm.SAME:
        edge = tree.edges[0]
        if lexicon is None:
            raise ValueError("matching a same-form tree requires an attribute lexicon")
        return _same_satisfied(graph, obj, edge, lexicon)

    if tree.form is LogicForm.CHAIN:
        return _relation_satisfied(graph, obj, tree.edges[0], tree.chain_extension)

    if tree.form in (LogicForm.AND, LogicForm.OR):
        hits = [_relation_satisfied(graph, obj, e) for e in tree.edges]
        return all(hits) if tree.form is LogicForm.AND else any(hits)

    # order / not: any attached relation edges must hold as well
    return all(_relation_satisfied(graph, obj, e) for e in tree.edges)


def match(tree: ReasoningTree, graph: SceneGraph,
          lexicon: Mapping[str, str] | None = None) -> set[str]:
    """Object ids in ``graph`` that satisfy ``tree``.

    Adding constraints to a tree can only shrink this set, never grow it.
    The ``lexicon`` (attribute value -> attribute category) is needed only
    for same-form trees.
    """
    return {
        obj.id
        for obj in graph.nodes_of_category(tree.root.category)
        if _satisfies(tree, obj, graph, lexicon)
    }


# ---------------------------------------------------------------------------
# Parsing (tree synthesis from a scene graph around a chosen target)

DEFAULT_PARSE_BUDGET = 16
ATTRIBUTE_SAMPLE_LIMIT = 2


def _sample_attributes(rng: random.Random, obj: ObjectNode,
                       limit: int = ATTRIBUTE_SAMPLE_LIMIT) -> tuple[str, ...]:
    # 0 to 2 attributes, uniform over the count then over the values.
    k = rng.randint(0, min(limit, len(obj.attributes)))
    if k == 0:
        return ()
    return tuple(sorted(rng.sample(list(obj.attributes), k)))


def _pick_edge(rng: random.Random, edges: Sequence, weights: Mapping[str, float] | None):
    if weights is None:
        return edges[rng.randrange(len(edges))]
    return weighted_choice(rng, list(edges), [weights.get(e.predicate, 1.0) for e in edges])


def parse_chain(
    graph: SceneGraph,
    target: str,
    depth: int,
    rng: random.Random,
    *,
    weights: Mapping[str, float] | None = None,
    budget: int = DEFAULT_PARSE_BUDGET,
) -> ReasoningTree | None:
    """Build a relation chain of the given depth (1 or 2) rooted at the target.

    Relations are sampled by ``weights`` (predicate -> weight, defaulting to
    uniform), attributes uniformly per node.  Returns None when no sampled
    chain pins down the target unambiguously within the budget.
    """
    if depth not in (1, 2):
        raise ValueError(f"chain depth must be 1 or 2, got {depth}")
    node = graph.node(target)
    first_hops = graph.out_edges(target)
    if not first_hops:
        return None
    for _ in range(budget):
        hop0 = _pick_edge(rng, first_hops, weights)
        child = graph.node(hop0.object)
        extension = None
        if depth == 2:
            second_hops = [e for e in graph.out_edges(child.id) if e.object != target]
            if not second_hops:
                continue
            hop1 = _pick_edge(rng, second_hops, weights)
            grand = graph.node(hop1.object)
            extension = TreeEdge.relation(
                hop1.predicate,
                TreeNode(grand.category, _sample_attributes(rng, grand)),
            )
        tree = ReasoningTree(
            form=LogicForm.CHAIN,
            root=TreeNode(node.category, _sample_attributes(rng, node)),
            edges=(TreeEdge.relation(hop0.predicate,
                                     TreeNode(child.category, _sample_attributes(rng, child))),),
            chain_extension=extension,
        )
        if match(tree, graph) == {target}:
            return tree
    return None


def parse_and_or(
    graph: SceneGraph,
    target: str,
    junction: str,
    rng: random.Random,
    *,
    weights: Mapping[str, float] | None = None,
    budget: int = DEFAULT_PARSE_BUDGET,
) -> ReasoningTree | None:
    """Two relation branches from the target joined by "and" or "or".

    Both branches lead to distinct related objects.  An or-tree is checked
    for unambiguity under or-semantics, which is strictly harder to satisfy
    than the conjunctive reading.
    """
    if junction not in ("and", "or"):
        raise ValueError(f"junction must be 'and' or 'or', got {junction!r}")
    node = graph.node(target)
    hops = graph.out_edges(target)
    if len({e.object for e in hops}) < 2:
        return None
    form = LogicForm.AND if junction == "and" else LogicForm.OR
    for _ in range(budget):
        first = _pick_edge(rng, hops, weights)
        rest = [e for e in hops if e.object != first.object]
        second = _pick_edge(rng, rest, weights)
        branches = []
        for hop in (first, second):
            child = graph.node(hop.object)
            branches.append(
                TreeEdge.relation(hop.predicate,
                                  TreeNode(child.category, _sample_attributes(rng, child)))
            )
        tree = ReasoningTree(
            form=form,
            root=TreeNode(node.category, _sample_attributes(rng, node)),
            edges=tuple(branches),
            junction=junction,
        )
        if match(tree, graph) == {target}:
            return tree
    return None


def parse_order(
    graph: SceneGraph,
    target: str,
    rng: random.Random,
    *,
    weights: Mapping[str, float] | None = None,
) -> ReasoningTree | None:
    """Rank the target among same-category objects by horizontal position.

    The rank within one image identifies a single object, so the base tree is
    unambiguous by construction; sampled attributes and an optional relation
    edge only add descriptive weight (cross-image ambiguity is the distractor
    module's concern, not this parser's).
    """
    node = graph.node(target)
    ordered = graph.category_order(node.category)
    position = ordered.index(target)
    direction = rng.choice(DIRECTIONS)
    index = position + 1 if direction == "left" else len(ordered) - position
    edges: tuple[TreeEdge, ...] = ()
    hops = graph.out_edges(target)
    if hops and rng.random() < 0.5:
        hop = _pick_edge(rng, hops, weights)
        child = graph.node(hop.object)
        edges = (TreeEdge.relation(hop.predicate,
                                   TreeNode(child.category, _sample_attributes(rng, child))),)
    tree = ReasoningTree(
        form=LogicForm.ORDER,
        root=TreeNode(
            node.category,
            _sample_attributes(rng, node),
            order_spec=OrderSpec(index=index, direction=direction),
        ),
        edges=edges,
    )
    if match(tree, graph) == {target}:
        return tree
    return None


def parse_same(
    graph: SceneGraph,
    target: str,
    rng: random.Random,
    *,
    lexicon: Mapping[str, str],
    budget: int = DEFAULT_PARSE_BUDGET,
) -> ReasoningTree | None:
    """Tie the target to another object through a shared attribute category.

    Candidate partners are objects of a different category holding an
    attribute value that, within this image, only the target and the partner
    carry.  The resulting tree must still match the target alone, which rules
    out images where a second pair of the same two categories also shares a
    value in that category.
    """
    node = graph.node(target)
    pairs: list[tuple[ObjectNode, str]] = []
    for peer in graph.nodes:
        if peer.id == target or peer.category == node.category:
            continue
        for value in node.attributes:
            if value not in peer.attribute_set or value not in lexicon:
                continue
            holders = {
                other.id
                for other in graph.nodes
                if value in other.attribute_set
            }
            if holders == {target, peer.id}:
                pairs.append((peer, value))
    if not pairs:
        return None
    rng.shuffle(pairs)
    for peer, value in pairs[:budget]:
        tree = ReasoningTree(
            form=LogicForm.SAME,
            root=TreeNode(node.category),
            edges=(TreeEdge.same(lexicon[value], TreeNode(peer.category)),),
        )
        if match(tree, graph, lexicon) == {target}:
            return tree
    return None


def parse_not(
    graph: SceneGraph,
    target: str,
    rng: random.Random,
) -> ReasoningTree | None:
    """Single out the target by an attribute every same-category peer carries.

    Needs at least two objects of the target's category; the negated
    attribute must be present on all peers and absent from the target, which
    makes the tree unambiguous by construction.
    """
    node = graph.node(target)
    peers = [n for n in graph.nodes_of_category(node.category) if n.id != target]
    if not peers:
        return None
    common = set.intersection(*[set(p.attribute_set) for p in peers]) - node.attribute_set
    if not common:
        return None
    negated = rng.choice(sorted(common))
    tree = ReasoningTree(
        form=LogicForm.NOT,
        root=TreeNode(node.category, _sample_attributes(rng, node),
                      negated_attributes=(negated,)),
    )
    if match(tree, graph) == {target}:
        return tree
    return None


# ---------------------------------------------------------------------------
# Composition


def _with_extra_attribute(spec: TreeNode, value: str) -> TreeNode:
    return replace(spec, attributes=tuple(sorted({*spec.attributes, value})))


def compose(
    base: ReasoningTree,
    graph: SceneGraph,
    target: str,
    rng: random.Random,
    *,
    weights: Mapping[str, float] | None = None,
    lexicon: Mapping[str, str] | None = None,
) -> ReasoningTree | None:
    """Extend a sound tree with one more constraint, preserving soundness.

    Available moves depend on the form: enrich the root or an edge child with
    one more attribute drawn from the matched object, append a relation edge
    where the form allows one (order and not trees without an edge), or grow
    a depth-1 chain by one hop.  Constraint addition can only shrink the
    match set, and every candidate is re-checked before being returned, so a
    composed tree matches exactly the target.  Returns None when no move
    applies.
    """
    node = graph.node(target)
    moves: list[str] = []
    if set(node.attributes) - set(base.root.attributes) - set(base.root.negated_attributes):
        moves.append("root_attribute")
    relation_slots = [i for i, e in enumerate(base.edges) if e.kind == EDGE_RELATION]
    if relation_slots:
        moves.append("child_attribute")
    if base.form is LogicForm.CHAIN and base.chain_extension is None:
        moves.append("extend_chain")
    if base.form in (LogicForm.ORDER, LogicForm.NOT) and not base.edges:
        moves.append("append_edge")
    rng.shuffle(moves)

    for move in moves:
        candidate: ReasoningTree | None = None
        if move == "root_attribute":
            extra = rng.choice(sorted(
                set(node.attributes) - set(base.root.attributes) - set(base.root.negated_attributes)
            ))
            candidate = replace(base, root=_with_extra_attribute(base.root, extra))
        elif move == "child_attribute":
            slot = rng.choice(relation_slots)
            edge = base.edges[slot]
            witnesses = [
                graph.node(rel.object)
                for rel in graph.out_edges(target)
                if rel.predicate == edge.predicate and _node_satisfied(graph.node(rel.object), edge.child)
            ]
            pool = sorted(
                {a for w in witnesses for a in w.attributes} - set(edge.child.attributes)
            )
            if not pool:
                continue
            extra = rng.choice(pool)
            keep = [w for w in witnesses if extra in w.attribute_set]
            if not keep:
                continue
            new_edge = replace(edge, child=_with_extra_attribute(edge.child, extra))
            candidate = replace(base, edges=base.edges[:slot] + (new_edge,) + base.edges[slot + 1:])
        elif move == "extend_chain":
            edge = base.edges[0]
            witnesses = [
                graph.node(rel.object)
                for rel in graph.out_edges(target)
                if rel.predicate == edge.predicate and _node_satisfied(graph.node(rel.object), edge.child)
            ]
            hops = [
                rel
                for w in witnesses
                for rel in graph.out_edges(w.id)
                if rel.object != target
            ]
            if not hops:
                continue
            hop = _pick_edge(rng, hops, weights)
            grand = graph.node(hop.object)
            candidate = replace(
                base,
                chain_extension=TreeEdge.relation(
                    hop.predicate, TreeNode(grand.category, _sample_attributes(rng, grand))
                ),
            )
        elif move == "append_edge":
            hops = graph.out_edges(target)
            if not hops:
                continue
            hop = _pick_edge(rng, hops, weights)
            child = graph.node(hop.object)
            candidate = replace(
                base,
                edges=(TreeEdge.relation(hop.predicate,
                                         TreeNode(child.category, _sample_attributes(rng, child))),),
            )
        if candidate is not None and match(candidate, graph, lexicon) == {target}:
            return candidate
    return None


# ---------------------------------------------------------------------------
# Serialization


def _node_to_jsonable(node: TreeNode) -> dict:
    data: dict = {"category": node.category, "attributes": list(node.attributes)}
    if node.order_spec is not None:
        data["order"] = {"index": node.order_spec.index, "direction": node.order_spec.direction}
    if node.negated_attributes:
        data["negated_attributes"] = list(node.negated_attributes)
    return data


def _edge_to_jsonable(edge: TreeEdge) -> dict:
    if edge.kind == EDGE_RELATION:
        return {"kind": EDGE_RELATION, "predicate": edge.predicate,
                "child": _node_to_jsonable(edge.child)}
    return {"kind": EDGE_SAME, "category": edge.category, "child": _node_to_jsonable(edge.child)}


def tree_to_jsonable(tree: ReasoningTree) -> dict:
    data: dict = {
        "form": tree.form.value,
        "root": _node_to_jsonable(tree.root),
        "edges": [_edge_to_jsonable(e) for e in tree.edges],
    }
    if tree.chain_extension is not None:
        data["chain_extension"] = _edge_to_jsonable(tree.chain_extension)
    if tree.junction != "none":
        data["junction"] = tree.junction
    return data


def _strings(data: Mapping, key: str) -> tuple[str, ...]:
    values = data.get(key, [])
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise SchemaViolation(f"tree node {key} must be a list of strings, got {values!r}")
    return tuple(values)


def _node_from_jsonable(data: Mapping) -> TreeNode:
    if not isinstance(data, Mapping) or "category" not in data:
        raise SchemaViolation(f"bad tree node record: {data!r}")
    if not isinstance(data["category"], str) or not data["category"]:
        raise SchemaViolation(f"tree node category must be a non-empty string, got {data['category']!r}")
    order = data.get("order")
    spec = None
    if order is not None:
        try:
            if type(order["index"]) is not int:
                raise TypeError("order index must be an integer")
            spec = OrderSpec(index=order["index"], direction=order["direction"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"bad order spec: {order!r}") from exc
    return TreeNode(
        category=data["category"],
        attributes=_strings(data, "attributes"),
        order_spec=spec,
        negated_attributes=_strings(data, "negated_attributes"),
    )


def _edge_from_jsonable(data: Mapping) -> TreeEdge:
    if not isinstance(data, Mapping) or "kind" not in data or "child" not in data:
        raise SchemaViolation(f"bad tree edge record: {data!r}")
    child = _node_from_jsonable(data["child"])
    try:
        if data["kind"] == EDGE_RELATION:
            if not isinstance(data["predicate"], str):
                raise ValueError("predicate must be a string")
            return TreeEdge.relation(data["predicate"], child)
        if data["kind"] == EDGE_SAME:
            return TreeEdge.same(data["category"], child)
    except (KeyError, ValueError) as exc:
        raise SchemaViolation(f"bad tree edge record: {data!r}") from exc
    raise SchemaViolation(f"unknown tree edge kind {data['kind']!r}")


def tree_from_jsonable(data: Mapping) -> ReasoningTree:
    if not isinstance(data, Mapping) or "form" not in data or "root" not in data:
        raise SchemaViolation(f"bad reasoning tree record: {data!r}")
    try:
        form = LogicForm(data["form"])
    except ValueError as exc:
        raise SchemaViolation(f"unknown logic form {data['form']!r}") from exc
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise SchemaViolation(f"tree edges must be a list, got {edges!r}")
    tree = ReasoningTree(
        form=form,
        root=_node_from_jsonable(data["root"]),
        edges=tuple(_edge_from_jsonable(e) for e in edges),
        chain_extension=(
            _edge_from_jsonable(data["chain_extension"]) if data.get("chain_extension") else None
        ),
        junction=data.get("junction", "none"),
    )
    try:
        validate_tree(tree)
    except ValueError as exc:
        raise SchemaViolation(f"invalid reasoning tree: {exc}") from exc
    return tree
