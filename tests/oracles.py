"""Independent reference implementations used to cross-check the package.

Everything here is written from scratch in a deliberately different style
from the library: flat loops over raw node and edge lists, no shared
helpers, no library internals beyond the public data types.  Agreement
between a library result and an oracle result is evidence precisely because
the two computations share no code path.
"""

from __future__ import annotations

import math

from refsynth.reasoning import EDGE_SAME, LogicForm


def _node_ok(obj, spec) -> bool:
    if obj.category != spec.category:
        return False
    return all(a in obj.attributes for a in spec.attributes)


def _relation_ok(graph, subject_id, predicate, child_spec, then=None) -> bool:
    for edge in graph.edges:
        if edge.subject != subject_id or edge.predicate != predicate:
            continue
        child = next(n for n in graph.nodes if n.id == edge.object)
        if not _node_ok(child, child_spec):
            continue
        if then is None:
            return True
        then_predicate, then_spec = then
        if _relation_ok(graph, child.id, then_predicate, then_spec):
            return True
    return False


def _rank_from_left(graph, obj) -> tuple[int, int]:
    same = [n for n in graph.nodes if n.category == obj.category]
    same.sort(key=lambda n: (n.box.x + n.box.w / 2.0, n.id))
    return [n.id for n in same].index(obj.id) + 1, len(same)


def _same_ok(graph, obj, edge, lexicon) -> bool:
    for peer in graph.nodes:
        if peer.id == obj.id:
            continue
        if not _node_ok(peer, edge.child):
            continue
        for value in obj.attributes:
            if value not in peer.attributes:
                continue
            if lexicon.get(value) != edge.category:
                continue
            third_party = [
                n
                for n in graph.nodes
                if n.category in (obj.category, peer.category)
                and value in n.attributes
                and n.id not in (obj.id, peer.id)
            ]
            if not third_party:
                return True
    return False


def brute_force_match(tree, graph, lexicon=None) -> set[str]:
    """Exhaustive reimplementation of tree matching."""
    hits = set()
    for obj in graph.nodes:
        if not _node_ok(obj, tree.root):
            continue
        if any(a in obj.attributes for a in tree.root.negated_attributes):
            continue
        if tree.root.order_spec is not None:
            rank, total = _rank_from_left(graph, obj)
            spec = tree.root.order_spec
            wanted = spec.index if spec.direction == "left" else total - spec.index + 1
            if rank != wanted:
                continue
        if tree.form is LogicForm.SAME:
            if not _same_ok(graph, obj, tree.edges[0], lexicon):
                continue
        elif tree.form is LogicForm.CHAIN:
            then = None
            if tree.chain_extension is not None:
                then = (tree.chain_extension.predicate, tree.chain_extension.child)
            first = tree.edges[0]
            if not _relation_ok(graph, obj.id, first.predicate, first.child, then):
                continue
        elif tree.form in (LogicForm.AND, LogicForm.OR):
            branch = [
                _relation_ok(graph, obj.id, e.predicate, e.child) for e in tree.edges
            ]
            combined = (branch[0] and branch[1]) if tree.form is LogicForm.AND else (branch[0] or branch[1])
            if not combined:
                continue
        else:
            assert all(e.kind != EDGE_SAME for e in tree.edges)
            if not all(_relation_ok(graph, obj.id, e.predicate, e.child) for e in tree.edges):
                continue
        hits.add(obj.id)
    return hits


def _category_hop_ok(graph, subject_id, predicate, category, then=None) -> bool:
    for edge in graph.edges:
        if edge.subject != subject_id or edge.predicate != predicate:
            continue
        child = next(n for n in graph.nodes if n.id == edge.object)
        if child.category != category:
            continue
        if then is None:
            return True
        then_predicate, then_category = then
        if _category_hop_ok(graph, child.id, then_predicate, then_category):
            return True
    return False


def brute_force_skeleton(tree, graph, lexicon=None) -> bool:
    """Exhaustive reimplementation of the category-and-relation skeleton check.

    Only categories, predicates and same-attribute categories count; a tree
    with no edges realizes nothing, and a same-form tree realizes nothing
    without a lexicon.
    """
    if not tree.edges:
        return False
    for obj in graph.nodes:
        if obj.category != tree.root.category:
            continue
        if tree.form is LogicForm.SAME:
            if lexicon is None:
                return False
            edge = tree.edges[0]
            for peer in graph.nodes:
                if peer.id == obj.id or peer.category != edge.child.category:
                    continue
                for value in obj.attributes:
                    if value in peer.attributes and lexicon.get(value) == edge.category:
                        return True
            continue
        then = None
        if tree.form is LogicForm.CHAIN and tree.chain_extension is not None:
            then = (tree.chain_extension.predicate, tree.chain_extension.child.category)
        branch = []
        for edge in tree.edges:
            branch.append(
                _category_hop_ok(graph, obj.id, edge.predicate, edge.child.category, then)
            )
        if tree.form is LogicForm.OR:
            if True in branch:
                return True
        elif False not in branch:
            return True
    return False


def literal_rank_loss(positive, negative_region, negative_expression, margin) -> float:
    """The two-hinge ranking objective, written out term by term."""
    first = margin + negative_region - positive
    second = margin + negative_expression - positive
    return (first if first > 0 else 0.0) + (second if second > 0 else 0.0)


def literal_mine_loss(positive, region_scores, expression_scores, margin) -> float:
    """The per-module mined objective, written out term by term."""
    total = 0.0
    for module in sorted(region_scores):
        term = margin + region_scores[module] - positive
        total += term if term > 0 else 0.0
    for module in sorted(expression_scores):
        term = margin + expression_scores[module] - positive
        total += term if term > 0 else 0.0
    return total


def cosine(a, b) -> float:
    """Cosine of two vectors via math.fsum, no numpy involved; 0.0 for a
    zero-length vector, which the sampling table counts as dissimilar to all."""
    norms = math.sqrt(math.fsum(x * x for x in a)) * math.sqrt(math.fsum(y * y for y in b))
    return math.fsum(x * y for x, y in zip(a, b)) / norms if norms else 0.0


def hand_softmax(values) -> list[float]:
    """Softmax via math.exp, no numpy involved."""
    exps = [math.exp(v) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def walk_sample(row, position, region_ids, r) -> str:
    """A hard-negative draw by a running sum over a row, skipping the self entry.

    Returns the first peer whose running total exceeds ``r``, or the last peer
    when ``r`` reaches the row's total.
    """
    acc = 0.0
    peer = region_ids[0]
    for i, prob in enumerate(row):
        if i == position:
            continue
        peer = region_ids[i]
        acc += float(prob)
        if r < acc:
            return peer
    return peer


def binomial_sigma(p: float, n: int) -> float:
    """Standard deviation of a proportion estimated from n Bernoulli draws."""
    return math.sqrt(p * (1.0 - p) / n)


def brute_force_select(scored) -> tuple[str, str]:
    """Argmax over (image_id, object_id, score) triples, smallest pair wins ties."""
    best_key = None
    best_pair = None
    for image_id, object_id, value in scored:
        key = (-value, image_id, object_id)
        if best_key is None or key < best_key:
            best_key = key
            best_pair = (image_id, object_id)
    return best_pair


def chance_hit_probability(instance, image_ids) -> float:
    """Probability an i.i.d. continuous random scorer picks the true target."""
    n = sum(len(instance.candidate_regions[i]) for i in image_ids)
    return 1.0 / n
