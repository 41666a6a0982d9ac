"""Shared fixtures: the checked-in corpus and the pipeline stages over it."""

from __future__ import annotations

import os

import pytest

from refsynth.balance import is_spatial_only, relation_weights
from refsynth.config import PipelineConfig
from refsynth.distractor import find_distractors
from refsynth.expression import (
    GenerationConfig,
    default_attribute_lexicon,
    default_templates,
    generate,
)
from refsynth.scene_graph import (
    BoundingBox,
    Corpus,
    ObjectNode,
    RelationEdge,
    SceneGraph,
    SynonymTable,
    load_corpus_path,
    target_exclusion_reason,
)
from refsynth.util import derive_rng

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CORPUS_PATH = os.path.join(FIXTURES, "corpus20.json")
SYNONYMS_PATH = os.path.join(FIXTURES, "synonyms.json")
LEXICON_PATH = os.path.join(FIXTURES, "lexicon.json")

PIPELINE_SEED = 0
# The target rule generate applies at the default config: (min_area_ratio, blacklist).
TARGET_RULE = (PipelineConfig.min_area_ratio, frozenset(PipelineConfig.category_blacklist))


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    return load_corpus_path(CORPUS_PATH)


@pytest.fixture(scope="session")
def lexicon() -> dict[str, str]:
    return default_attribute_lexicon()


@pytest.fixture(scope="session")
def generation_config(corpus, lexicon) -> GenerationConfig:
    return GenerationConfig(
        templates=default_templates(),
        synonyms=SynonymTable.empty(),
        lexicon=lexicon,
        relation_weights=relation_weights(corpus).weights,
    )


@pytest.fixture(scope="session")
def expressions(corpus, generation_config):
    """Every expression the fixture corpus yields, spatial-only ones dropped."""
    records = []
    for image_id, graph in corpus.graphs.items():
        for node in graph.nodes:
            if target_exclusion_reason(graph, node, *TARGET_RULE) is None:
                rng = derive_rng(PIPELINE_SEED, image_id, node.id)
                records.extend(generate(graph, node.id, generation_config, rng))
    return [r for r in records if not is_spatial_only(r.tree)]


@pytest.fixture(scope="session")
def instances(corpus, expressions, lexicon):
    """Task instances for every expression that finds a full distractor set."""
    found = (find_distractors(corpus, r, 3, lexicon) for r in expressions)
    return [inst for inst in found if inst is not None]


# Edits that break the one box rule, applied to any mapping that holds a
# valid box under "x", "y", "w" and "h": a corpus object, a target_box or a
# candidate region's box.
BAD_BOX_EDITS = {
    "missing-key": lambda raw: {k: v for k, v in raw.items() if k != "h"},
    "bool": lambda raw: {**raw, "x": True},
    "string": lambda raw: {**raw, "w": "5"},
    "null": lambda raw: {**raw, "y": None},
    "zero-width": lambda raw: {**raw, "w": 0},
    "negative-height": lambda raw: {**raw, "h": -4},
    "negative-x": lambda raw: {**raw, "x": -1},
    "negative-y": lambda raw: {**raw, "y": -2},
    "nan-width": lambda raw: {**raw, "w": float("nan")},
    "infinite-height": lambda raw: {**raw, "h": float("inf")},
    "infinite-x": lambda raw: {**raw, "x": float("inf")},
}


def box(x=0, y=0, w=50, h=50) -> BoundingBox:
    return BoundingBox(x=x, y=y, w=w, h=h)


def build_graph(image_id, objects, edges=(), width=640, height=480) -> SceneGraph:
    """Small hand-built graph helper for unit tests.

    ``objects`` maps object id to (category, attributes, box); ``edges`` is a
    list of (subject, predicate, object) triples.
    """
    nodes = tuple(
        ObjectNode(id=oid, category=cat, attributes=tuple(attrs), box=b)
        for oid, (cat, attrs, b) in objects.items()
    )
    relation_edges = tuple(
        RelationEdge(subject=s, predicate=p, object=o) for s, p, o in edges
    )
    return SceneGraph(
        image_id=image_id, width=width, height=height, nodes=nodes, edges=relation_edges
    )
