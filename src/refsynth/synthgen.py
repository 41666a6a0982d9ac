"""Seeded synthetic data: scene-graph corpora and modular embeddings.

Real scene-graph datasets are large and unevenly annotated, which makes
them poor fixtures.  The generators here produce small corpora with the
same statistical quirks that matter to the pipeline: skewed category
frequencies, shared attribute values across categories, a mix of spatial
and contentful predicates, the odd blacklisted or sub-threshold region.
Everything is a pure function of the seed.
"""

from __future__ import annotations

import random

import numpy as np

from .mining import MODULE_NAMES, ModularEmbedding
from .scene_graph import Corpus

CATEGORY_ATTRIBUTE_POOLS: dict[str, tuple[str, ...]] = {
    "bag": ("leather", "black", "green"),
    "ball": ("round", "yellow", "green"),
    "book": ("red", "green", "blue"),
    "box": ("square", "brown", "plastic"),
    "cat": ("black", "white", "orange", "striped"),
    "chair": ("wooden", "metal", "red"),
    "cup": ("red", "blue", "white", "round"),
    "dog": ("brown", "black", "white", "spotted"),
    "lamp": ("metal", "white", "yellow"),
    "pillow": ("checkered", "white", "blue"),
    "plant": ("green",),
    "table": ("wooden", "round", "brown"),
}

SPATIAL_PREDICATE_POOL = (
    "near",
    "behind",
    "above",
    "below",
    "to the left of",
    "in front of",
)

CONTENT_PREDICATE_POOL = (
    "on",
    "touching",
    "holding",
    "resting on",
    "covering",
)


def make_corpus_payload(
    seed: int,
    image_count: int = 20,
    width: int = 640,
    height: int = 480,
) -> dict:
    """Build a corpus document in the on-disk schema."""
    rng = random.Random(seed)
    categories = sorted(CATEGORY_ATTRIBUTE_POOLS)
    payload: dict = {}
    for i in range(image_count):
        image_id = f"img{i:03d}"
        objects: dict = {}
        count = rng.randint(7, 9)
        for j in range(count):
            category = rng.choice(categories)
            pool = CATEGORY_ATTRIBUTE_POOLS[category]
            n_attrs = rng.randint(0, min(2, len(pool)))
            attributes = sorted(rng.sample(pool, n_attrs))
            w = rng.randint(60, 280)
            h = rng.randint(60, 220)
            objects[f"o{j + 1}"] = {
                "name": category,
                "x": rng.randint(0, width - w),
                "y": rng.randint(0, height - h),
                "w": w,
                "h": h,
                "attributes": attributes,
                "relations": [],
            }
        if rng.random() < 0.2:
            objects[f"o{len(objects) + 1}"] = {
                "name": "sky",
                "x": 0,
                "y": 0,
                "w": width,
                "h": 80,
                "attributes": ["blue"],
                "relations": [],
            }
        if rng.random() < 0.2:
            objects[f"o{len(objects) + 1}"] = {
                "name": rng.choice(categories),
                "x": rng.randint(0, width - 30),
                "y": rng.randint(0, height - 30),
                "w": 30,
                "h": 30,
                "attributes": [],
                "relations": [],
            }
        ids = sorted(objects)
        seen: set[tuple[str, str, str]] = set()
        for _ in range(rng.randint(7, 11)):
            subject, target = rng.sample(ids, 2)
            pool = SPATIAL_PREDICATE_POOL if rng.random() < 0.55 else CONTENT_PREDICATE_POOL
            predicate = rng.choice(pool)
            key = (subject, predicate, target)
            if key in seen:
                continue
            seen.add(key)
            objects[subject]["relations"].append({"name": predicate, "object": target})
        payload[image_id] = {"width": width, "height": height, "objects": objects}
    return payload


def make_embeddings(
    seed: int,
    count: int,
    dim: int = 64,
    category_count: int = 600,
    module_names: tuple[str, ...] = MODULE_NAMES,
    spread: float = 0.5,
) -> list[ModularEmbedding]:
    """Clustered random embeddings: one centroid per category and module.

    Members of a category sit near their centroid, so cosine similarities
    within a category are varied but mostly positive, which is the regime
    the sampling table sees in practice.
    """
    rng = np.random.default_rng(seed)
    assignments = rng.integers(0, category_count, size=count)
    per_module = {}
    for name in module_names:
        centroids = rng.normal(size=(category_count, dim))
        noise = rng.normal(scale=spread, size=(count, dim))
        per_module[name] = centroids[assignments] + noise
    width = len(str(count - 1)) if count else 1
    return [
        ModularEmbedding(
            region_id=f"r{i:0{width}d}",
            category=f"c{assignments[i]:04d}",
            modules={name: per_module[name][i] for name in module_names},
        )
        for i in range(count)
    ]


def embeddings_for_corpus(
    corpus: Corpus,
    seed: int,
    dim: int = 16,
    module_names: tuple[str, ...] = MODULE_NAMES,
) -> list[ModularEmbedding]:
    """One embedding per region of a corpus, ids ``image_id:object_id``."""
    rng = np.random.default_rng(seed)
    out = []
    for image_id, graph in corpus.graphs.items():
        for node in graph.nodes:
            out.append(
                ModularEmbedding(
                    region_id=f"{image_id}:{node.id}",
                    category=node.category,
                    modules={name: rng.normal(size=dim) for name in module_names},
                )
            )
    return out
