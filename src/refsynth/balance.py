"""Dataset balancing, filtering, splitting, and descriptive statistics.

Relation sampling weights are inversely proportional to corpus frequency so
that rare, contentful predicates get picked over the handful of spatial ones
that dominate raw scene graphs.  Expressions whose evidence is purely
spatial are dropped outright.  Splits are taken at the image level so no
image leaks across partitions.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .distractor import TaskInstance
from .errors import ConfigError, EmptyCorpus, EmptyInput
from .expression import ExpressionRecord
from .reasoning import EDGE_RELATION, LogicForm, ReasoningTree
from .scene_graph import Corpus
from .util import weighted_choice

DEFAULT_SPATIAL_RELATIONS = frozenset({
    "to the left of",
    "to the right of",
    "above",
    "below",
    "behind",
    "in front of",
    "near",
})

DEFAULT_SPLIT_RATIOS = (0.8, 0.11, 0.09)


@dataclass
class RelationWeights:
    """Per-predicate sampling weights, proportional to inverse frequency.

    ``weights[p] = K / frequencies[p]`` with one global constant K chosen so
    the full map sums to 1; sampling over a candidate subset renormalizes on
    the fly.
    """

    weights: dict[str, float]
    frequencies: dict[str, int]

    def sample(self, rng: random.Random, candidates: Sequence[str] | None = None) -> str:
        pool = list(self.weights if candidates is None else candidates)
        if not pool:
            raise EmptyInput("no candidate predicates to sample from")
        return weighted_choice(rng, pool, [self.weights.get(p, 0.0) for p in pool])


def relation_weights(corpus: Corpus) -> RelationWeights:
    """Inverse-frequency weights over every predicate in the corpus."""
    frequencies: Counter[str] = Counter()
    for graph in corpus.graphs.values():
        for edge in graph.edges:
            frequencies[edge.predicate] += 1
    if not frequencies:
        raise EmptyCorpus("corpus has no relations to weight")
    raw = {p: 1.0 / n for p, n in frequencies.items()}
    total = sum(raw.values())
    return RelationWeights(
        weights={p: w / total for p, w in sorted(raw.items())},
        frequencies=dict(sorted(frequencies.items())),
    )


def is_spatial_only(tree: ReasoningTree, spatial: Iterable[str] = DEFAULT_SPATIAL_RELATIONS) -> bool:
    """True when every relation edge is spatial and the form adds no other evidence.

    Order, same, and not trees carry non-relational evidence (rank, shared
    attribute, negation), so they are never spatial-only regardless of any
    attached edge.
    """
    if tree.form in (LogicForm.ORDER, LogicForm.SAME, LogicForm.NOT):
        return False
    spatial = frozenset(spatial)
    edges = [e for e in tree.edges if e.kind == EDGE_RELATION]
    if tree.chain_extension is not None:
        edges.append(tree.chain_extension)
    return all(e.predicate in spatial for e in edges)


def split(
    image_ids: Iterable[str],
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    seed: int = 0,
) -> dict[str, int]:
    """Assign each image to train (0), val (1) or test (2).

    The distinct images are sorted, shuffled with ``seed`` and cut by
    rounding, so part sizes in images are within one of the exact ratios and
    the assignment is reproducible from the seed alone.  Partitioning by
    image keeps every instance of one image in the same part.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must be three positive numbers summing to 1, got {ratios}")
    images = sorted(set(image_ids))
    rng = random.Random(seed)
    rng.shuffle(images)
    n = len(images)
    first = round(n * ratios[0])
    second = round(n * (ratios[0] + ratios[1]))
    return {image_id: 0 if i < first else (1 if i < second else 2) for i, image_id in enumerate(images)}


@dataclass
class DatasetStats:
    """Descriptive statistics over a corpus and the tasks built from it."""

    image_count: int
    region_count: int
    category_count: int
    attribute_count: int
    relation_count: int
    expression_count: int
    avg_expression_length: float | None
    vocab_size: int
    per_form: dict[str, int]
    avg_candidates: float | None
    avg_same_category_candidates: float | None
    top_categories: list[tuple[str, int]]
    top_attributes: list[tuple[str, int]]
    top_relations: list[tuple[str, int]]

    def to_jsonable(self) -> dict:
        return {
            "image_count": self.image_count,
            "region_count": self.region_count,
            "category_count": self.category_count,
            "attribute_count": self.attribute_count,
            "relation_count": self.relation_count,
            "expression_count": self.expression_count,
            "avg_expression_length": self.avg_expression_length,
            "vocab_size": self.vocab_size,
            "per_form": self.per_form,
            "avg_candidates": self.avg_candidates,
            "avg_same_category_candidates": self.avg_same_category_candidates,
            "top_categories": [list(x) for x in self.top_categories],
            "top_attributes": [list(x) for x in self.top_attributes],
            "top_relations": [list(x) for x in self.top_relations],
        }


def expression_length(text: str) -> int:
    """Whitespace token count; the terminal period rides on its word."""
    return len(text.split())


def compute_stats(
    corpus: Corpus | None = None,
    expressions: Iterable[ExpressionRecord] = (),
    instances: Iterable[TaskInstance] = (),
    top_k: int = 20,
) -> DatasetStats:
    """Aggregate statistics; any of the three inputs may be omitted.

    Raises EmptyInput when nothing at all was provided.  Expression-level
    numbers fall back to the expressions embedded in instances when no
    separate expression list is given.  Candidate counts need instances;
    same-category candidate counts additionally need the corpus.  The
    expressions, then the instances, are read once each and not kept.
    """
    image_count = region_count = 0
    categories: Counter[str] = Counter()
    attributes: Counter[str] = Counter()
    relations: Counter[str] = Counter()
    if corpus is not None:
        image_count = len(corpus.graphs)
        for graph in corpus.graphs.values():
            region_count += len(graph.nodes)
            for node in graph.nodes:
                categories[node.category] += 1
                attributes.update(node.attributes)
            for edge in graph.edges:
                relations[edge.predicate] += 1

    per_form: Counter[str] = Counter()
    vocabulary: set[str] = set()
    expression_count = word_count = 0

    def tally(record: ExpressionRecord) -> None:
        nonlocal expression_count, word_count
        expression_count += 1
        word_count += expression_length(record.text)
        per_form[record.form.value] += 1
        vocabulary.update(surface for surface, _ in record.tokens)

    for record in expressions:
        tally(record)
    from_instances = not expression_count
    instance_count = candidate_count = same_count = 0
    for inst in instances:
        instance_count += 1
        if from_instances:
            tally(inst.expression)
        candidate_count += sum(len(regions) for regions in inst.candidate_regions.values())
        if corpus is not None:
            category = inst.expression.tree.root.category
            same_count += sum(len(corpus.graphs[i].nodes_of_category(category)) for i in inst.candidate_regions)
    if not image_count and not expression_count and not instance_count:
        raise EmptyInput("nothing to compute statistics over")

    def top(counter: Counter[str]) -> list[tuple[str, int]]:
        return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]

    return DatasetStats(
        image_count=image_count,
        region_count=region_count,
        category_count=len(categories),
        attribute_count=len(attributes),
        relation_count=len(relations),
        expression_count=expression_count,
        avg_expression_length=word_count / expression_count if expression_count else None,
        vocab_size=len(vocabulary),
        per_form=dict(sorted(per_form.items())),
        avg_candidates=candidate_count / instance_count if instance_count else None,
        avg_same_category_candidates=(
            same_count / instance_count if instance_count and corpus is not None else None
        ),
        top_categories=top(categories),
        top_attributes=top(attributes),
        top_relations=top(relations),
    )


def format_stats_table(stats: DatasetStats) -> str:
    """Human-readable rendering of the headline numbers and top-k lists."""
    lines = [
        f"{'images':<28}{stats.image_count}",
        f"{'regions':<28}{stats.region_count}",
        f"{'categories':<28}{stats.category_count}",
        f"{'attributes':<28}{stats.attribute_count}",
        f"{'relations':<28}{stats.relation_count}",
        f"{'expressions':<28}{stats.expression_count}",
    ]
    if stats.avg_expression_length is not None:
        lines.append(f"{'avg expression length':<28}{stats.avg_expression_length:.2f}")
    lines.append(f"{'vocabulary':<28}{stats.vocab_size}")
    if stats.avg_candidates is not None:
        lines.append(f"{'avg candidates':<28}{stats.avg_candidates:.1f}")
    if stats.avg_same_category_candidates is not None:
        lines.append(f"{'avg same-category cands':<28}{stats.avg_same_category_candidates:.1f}")
    for title, pairs in (
        ("top categories", stats.top_categories),
        ("top attributes", stats.top_attributes),
        ("top relations", stats.top_relations),
    ):
        if pairs:
            lines.append(f"{title}:")
            lines.extend(f"  {name:<26}{count}" for name, count in pairs)
    if stats.per_form:
        lines.append("expressions per form:")
        lines.extend(f"  {form:<26}{count}" for form, count in sorted(stats.per_form.items()))
    return "\n".join(lines)
