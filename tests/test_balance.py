"""Predicate weighting, spatial-only filtering, splitting, and statistics."""

from __future__ import annotations

import random

import pytest

from refsynth.balance import (
    DEFAULT_SPATIAL_RELATIONS,
    compute_stats,
    format_stats_table,
    is_spatial_only,
    relation_weights,
    split,
)
from refsynth.errors import ConfigError, EmptyCorpus, EmptyInput
from refsynth.reasoning import LogicForm, OrderSpec, ReasoningTree, TreeEdge, TreeNode
from refsynth.scene_graph import Corpus

from .conftest import box, build_graph


def corpus_with_predicates(counts: dict[str, int]) -> Corpus:
    """One big image holding ``counts[p]`` edges for each predicate p."""
    total = sum(counts.values()) + 1
    objects = {f"o{i}": ("cup", (), box(x=(i * 7) % 500)) for i in range(total)}
    edges = []
    i = 0
    for predicate, n in sorted(counts.items()):
        for _ in range(n):
            edges.append((f"o{i}", predicate, f"o{i + 1}"))
            i += 1
    return Corpus.build({"img": build_graph("img", objects, edges)})


class TestRelationWeights:
    def test_weights_are_inverse_frequency_normalized(self):
        weights = relation_weights(corpus_with_predicates({"near": 10, "holding": 1}))
        assert weights.frequencies == {"holding": 1, "near": 10}
        assert abs(weights.weights["near"] - 1 / 11) < 1e-12
        assert abs(weights.weights["holding"] - 10 / 11) < 1e-12
        assert abs(sum(weights.weights.values()) - 1.0) < 1e-12

    def test_empty_corpus_rejected(self):
        corpus = Corpus.build({"img": build_graph("img", {"o1": ("cup", (), box())})})
        with pytest.raises(EmptyCorpus):
            relation_weights(corpus)

    def test_sample_over_a_candidate_subset(self):
        weights = relation_weights(
            corpus_with_predicates({"near": 4, "holding": 2, "on": 1})
        )
        rng = random.Random(0)
        draws = {weights.sample(rng, ["holding", "on"]) for _ in range(50)}
        assert draws == {"holding", "on"}
        with pytest.raises(EmptyInput):
            weights.sample(rng, [])


def chain_tree(*predicates, extension=None):
    edges = tuple(TreeEdge.relation(p, TreeNode("cup")) for p in predicates[:1])
    ext = TreeEdge.relation(extension, TreeNode("dog")) if extension else None
    return ReasoningTree(
        form=LogicForm.CHAIN, root=TreeNode("table"), edges=edges, chain_extension=ext
    )


class TestSpatialOnly:
    def test_all_spatial_chain_is_spatial_only(self):
        assert is_spatial_only(chain_tree("near"))
        assert is_spatial_only(chain_tree("above", extension="behind"))

    def test_one_contentful_predicate_saves_the_tree(self):
        assert not is_spatial_only(chain_tree("holding"))
        assert not is_spatial_only(chain_tree("near", extension="holding"))

    def test_rank_negation_and_shared_attributes_are_contentful(self):
        order = ReasoningTree(
            form=LogicForm.ORDER,
            root=TreeNode("cup", order_spec=OrderSpec(index=1, direction="left")),
            edges=(TreeEdge.relation("near", TreeNode("dog")),),
        )
        negated = ReasoningTree(
            form=LogicForm.NOT, root=TreeNode("cup", negated_attributes=("red",))
        )
        same = ReasoningTree(
            form=LogicForm.SAME,
            root=TreeNode("bag"),
            edges=(TreeEdge.same("colour", TreeNode("sweater")),),
        )
        for tree in (order, negated, same):
            assert not is_spatial_only(tree)

    def test_conjunction_of_spatial_branches_is_spatial_only(self):
        tree = ReasoningTree(
            form=LogicForm.AND,
            root=TreeNode("cup"),
            edges=(
                TreeEdge.relation("near", TreeNode("dog")),
                TreeEdge.relation("behind", TreeNode("table")),
            ),
            junction="and",
        )
        assert is_spatial_only(tree)

    def test_spatial_list_is_the_documented_closed_set(self):
        assert DEFAULT_SPATIAL_RELATIONS == {
            "to the left of",
            "to the right of",
            "above",
            "below",
            "behind",
            "in front of",
            "near",
        }


class TestSplit:
    def test_images_never_straddle_partitions(self, instances):
        image_of = [i.target_image for i in instances]
        part_of = split(image_of, seed=3)
        assert set(part_of) == set(image_of) and set(part_of.values()) <= {0, 1, 2}
        parts = [[i for i in image_of if part_of[i] == k] for k in range(3)]
        images = [set(part) for part in parts]
        assert not (images[0] & images[1])
        assert not (images[0] & images[2])
        assert not (images[1] & images[2])
        assert sum(len(part) for part in parts) == len(instances)

    def test_partition_sizes_track_the_ratios(self, instances):
        part_of = split((i.target_image for i in instances), (0.5, 0.25, 0.25), seed=1)
        images = sorted({i.target_image for i in instances})
        n = len(images)
        sizes = [sum(1 for part in part_of.values() if part == k) for k in range(3)]
        for size, ratio in zip(sizes, (0.5, 0.25, 0.25)):
            assert abs(size - n * ratio) <= 1

    def test_split_is_reproducible(self, instances):
        image_of = [i.target_image for i in instances]
        first = split(image_of, seed=9)
        second = split(reversed(image_of), seed=9)
        assert first == second

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.9, 0.2, -0.1), (0.5, 0.2, 0.2)])
    def test_bad_ratios_rejected(self, instances, ratios):
        with pytest.raises(ConfigError):
            split([i.target_image for i in instances], ratios)


class TestStats:
    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInput):
            compute_stats()

    def test_corpus_counts(self):
        corpus = corpus_with_predicates({"near": 2, "holding": 1})
        stats = compute_stats(corpus)
        assert stats.image_count == 1
        assert stats.region_count == 4
        assert stats.category_count == 1
        assert stats.relation_count == 2
        assert stats.top_relations[0] == ("near", 2)

    def test_expression_and_instance_numbers(self, corpus, expressions, instances):
        stats = compute_stats(corpus, expressions, instances)
        assert stats.expression_count == len(expressions)
        assert stats.vocab_size > 10
        assert sum(stats.per_form.values()) == len(expressions)
        expected = sum(
            sum(len(r) for r in inst.candidate_regions.values()) for inst in instances
        ) / len(instances)
        assert stats.avg_candidates == pytest.approx(expected)
        assert stats.avg_same_category_candidates > 0

    def test_iterators_give_the_stats_of_the_lists(self, corpus, expressions, instances):
        assert compute_stats(corpus, iter(expressions), iter(instances)) == compute_stats(
            corpus, expressions, instances)
        # Without expressions, expression numbers come from the instances.
        from_instances = compute_stats(corpus, instances=iter(instances))
        assert from_instances == compute_stats(corpus, instances=instances)
        assert from_instances.expression_count == len(instances)

    def test_empty_iterators_are_rejected(self):
        with pytest.raises(EmptyInput):
            compute_stats(instances=iter([]))
        with pytest.raises(EmptyInput):
            compute_stats(expressions=iter([]), instances=iter([]))

    def test_table_rendering_mentions_the_headline_numbers(self, corpus):
        stats = compute_stats(corpus)
        table = format_stats_table(stats)
        assert "images" in table and "20" in table
