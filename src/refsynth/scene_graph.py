"""Scene-graph corpora: loading, validation, canonicalization, target filtering.

The on-disk format is a single JSON document mapping image ids to sized
images with named, boxed objects plus attribute lists and directed relations
(GQA-style scene-graph exports load directly).  Every category, attribute,
and relation term is canonicalized through a synonym table at load time, so
all downstream semantics operate on canonical vocabulary only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Mapping

from .errors import DanglingEdge, SchemaViolation
from .util import load_json

log = logging.getLogger(__name__)

_NUMBER_TYPES = frozenset({int, float})
_INF = float("inf")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box, (x, y) top-left corner."""

    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center_x(self) -> float:
        return self.x + self.w / 2.0

    def to_jsonable(self) -> dict:
        return {"x": self.x, "y": self.y, "w": self.w, "h": self.h}


def box_record(data: object) -> dict:
    """The checked ``{"x", "y", "w", "h"}`` dict of a box; other keys are dropped.

    The one box rule, for the corpus and every record: each value is an int
    or a finite float, not a bool; ``w`` and ``h`` are positive, ``x`` and
    ``y`` not negative.
    """
    try:
        x, y, w, h = data["x"], data["y"], data["w"], data["h"]
    except (KeyError, TypeError, IndexError) as exc:
        raise SchemaViolation(f"box must be an object with x, y, w and h, got {data!r}") from exc
    # Exact types, which bool is not; cheaper than isinstance on this hot path.
    if not {type(x), type(y), type(w), type(h)} <= _NUMBER_TYPES:
        raise SchemaViolation(f"box x, y, w and h must be numbers, got {data!r}")
    if not (0 < w < _INF and 0 < h < _INF and 0 <= x < _INF and 0 <= y < _INF):  # NaN fails too
        raise SchemaViolation(f"box needs finite values, positive sides and a non-negative origin, "
                              f"got {x=} {y=} {w=} {h=}")
    return {"x": x, "y": y, "w": w, "h": h}


@dataclass
class ObjectNode:
    """One annotated region: canonical category, attribute set, box."""

    id: str
    category: str
    attributes: tuple[str, ...]
    box: BoundingBox

    def __post_init__(self) -> None:
        # Attributes behave as a set: deduplicated, order-free, stored sorted
        # so that every downstream iteration and sample is deterministic.
        self.attributes = tuple(sorted(set(self.attributes)))

    @cached_property
    def attribute_set(self) -> frozenset[str]:
        return frozenset(self.attributes)


@dataclass(frozen=True)
class RelationEdge:
    """Directed relation: subject --predicate--> object."""

    subject: str
    predicate: str
    object: str

    def __post_init__(self) -> None:
        if self.subject == self.object:
            raise SchemaViolation(f"self-relation on object {self.subject!r} is not allowed")


@dataclass
class SceneGraph:
    """All objects and relations of one image.

    Nodes are kept sorted by object id and edges by (subject, predicate,
    object); the canonical ordering makes serialization round-trips exact
    and seeded sampling reproducible regardless of input key order.
    """

    image_id: str
    width: int
    height: int
    nodes: tuple[ObjectNode, ...]
    edges: tuple[RelationEdge, ...]

    def __post_init__(self) -> None:
        self.nodes = tuple(sorted(self.nodes, key=lambda n: n.id))
        self.edges = tuple(sorted(self.edges, key=lambda e: (e.subject, e.predicate, e.object)))

    @cached_property
    def node_by_id(self) -> dict[str, ObjectNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _by_category(self) -> dict[str, tuple[ObjectNode, ...]]:
        grouped: dict[str, list[ObjectNode]] = {}
        for n in self.nodes:
            grouped.setdefault(n.category, []).append(n)
        return {c: tuple(ns) for c, ns in grouped.items()}

    @cached_property
    def regions(self) -> tuple[tuple[str, dict], ...]:
        """Every ``(object id, box record)`` pair in object-id order; built once and shared."""
        return tuple((n.id, n.box.to_jsonable()) for n in self.nodes)

    @cached_property
    def _out_edges(self) -> dict[str, tuple[RelationEdge, ...]]:
        grouped: dict[str, list[RelationEdge]] = {}
        for e in self.edges:
            grouped.setdefault(e.subject, []).append(e)
        return {s: tuple(es) for s, es in grouped.items()}

    def node(self, object_id: str) -> ObjectNode:
        return self.node_by_id[object_id]

    def nodes_of_category(self, category: str) -> tuple[ObjectNode, ...]:
        return self._by_category.get(category, ())

    def out_edges(self, object_id: str) -> tuple[RelationEdge, ...]:
        return self._out_edges.get(object_id, ())

    @cached_property
    def _category_orders(self) -> dict[str, tuple[str, ...]]:
        return {
            category: tuple(n.id for n in sorted(nodes, key=lambda n: (n.box.center_x, n.id)))
            for category, nodes in self._by_category.items()
        }

    def category_order(self, category: str) -> tuple[str, ...]:
        """Object ids of a category ordered left to right by box center.

        Ties on center x are broken by ascending object id.  The right-to-left
        ordering used elsewhere is defined as the exact reverse of this one,
        which keeps rank i from the left identical to rank k+1-i from the
        right even under ties.
        """
        return self._category_orders.get(category, ())


@dataclass
class SynonymTable:
    """Canonical term -> surface synonym list; entry 0 is the canonical term.

    ``canonicalize`` maps any known surface form back to its canonical term
    and leaves unknown terms untouched, which makes it idempotent.
    """

    entries: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized: dict[str, tuple[str, ...]] = {}
        reverse: dict[str, str] = {}
        for canonical, surfaces in self.entries.items():
            forms = tuple(surfaces)
            if not forms or forms[0] != canonical:
                forms = (canonical, *[s for s in forms if s != canonical])
            for surface in forms:
                prior = reverse.get(surface)
                if prior is not None and prior != canonical:
                    raise SchemaViolation(
                        f"synonym {surface!r} maps to both {prior!r} and {canonical!r}"
                    )
                reverse[surface] = canonical
            normalized[canonical] = forms
        self.entries = normalized
        self._reverse = reverse

    @classmethod
    def empty(cls) -> "SynonymTable":
        return cls({})

    def canonicalize(self, term: str) -> str:
        return self._reverse.get(term, term)

    def alternatives(self, term: str) -> tuple[str, ...]:
        """Non-canonical surface forms available for a canonical term."""
        return self.entries.get(term, (term,))[1:]


def load_synonyms(source: IO) -> SynonymTable:
    """Read a synonym table from a JSON map of canonical -> [surface, ...]."""
    data = load_json(source, "synonym table")
    if not isinstance(data, dict):
        raise SchemaViolation("synonym table must be a JSON object")
    entries: dict[str, tuple[str, ...]] = {}
    for canonical, surfaces in data.items():
        if not isinstance(canonical, str) or not canonical:
            raise SchemaViolation(f"bad canonical term {canonical!r}")
        if not isinstance(surfaces, list) or not all(isinstance(s, str) and s for s in surfaces):
            raise SchemaViolation(f"synonyms of {canonical!r} must be a list of non-empty strings")
        entries[canonical] = tuple(surfaces)
    return SynonymTable(entries)


@dataclass
class Corpus:
    """A collection of scene graphs keyed by image id, ascending."""

    graphs: dict[str, SceneGraph]

    @classmethod
    def build(cls, graphs: Mapping[str, SceneGraph]) -> "Corpus":
        return cls(graphs={k: graphs[k] for k in sorted(graphs)})

    @property
    def image_ids(self) -> tuple[str, ...]:
        return tuple(self.graphs)

    @cached_property
    def images_by_category(self) -> dict[str, tuple[str, ...]]:
        """Category -> ids of the images holding it, in corpus order."""
        index: dict[str, dict[str, None]] = {}
        for image_id, graph in self.graphs.items():
            for node in graph.nodes:
                index.setdefault(node.category, {})[image_id] = None
        return {category: tuple(images) for category, images in index.items()}

    def images_with_category(self, category: str) -> tuple[str, ...]:
        """Ids of the images holding the category, ascending."""
        return self.images_by_category.get(category, ())


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaViolation(message)


def _parse_graph(image_id: str, payload: Mapping, synonyms: SynonymTable) -> SceneGraph:
    _require(isinstance(payload, dict), f"image {image_id!r}: entry must be an object")
    for key in ("width", "height", "objects"):
        _require(key in payload, f"image {image_id!r}: missing {key!r}")
    width, height = payload["width"], payload["height"]
    _require(isinstance(width, int) and width > 0, f"image {image_id!r}: bad width {width!r}")
    _require(isinstance(height, int) and height > 0, f"image {image_id!r}: bad height {height!r}")
    raw_objects = payload["objects"]
    _require(isinstance(raw_objects, dict), f"image {image_id!r}: objects must be a map")

    nodes: list[ObjectNode] = []
    pending_edges: list[tuple[str, str, str]] = []
    for obj_id, raw in raw_objects.items():
        _require(isinstance(obj_id, str) and bool(obj_id), f"image {image_id!r}: bad object id {obj_id!r}")
        _require(isinstance(raw, dict), f"object {image_id!r}/{obj_id!r}: entry must be an object")
        _require("name" in raw, f"object {image_id!r}/{obj_id!r}: missing 'name'")
        name = raw["name"]
        _require(isinstance(name, str) and bool(name), f"object {image_id!r}/{obj_id!r}: bad name {name!r}")
        try:
            box = BoundingBox(**box_record(raw))
        except SchemaViolation as exc:
            raise SchemaViolation(f"object {image_id!r}/{obj_id!r}: {exc}") from exc
        _require(
            box.x + box.w <= width and box.y + box.h <= height,
            f"object {image_id!r}/{obj_id!r}: box exceeds the {width}x{height} image",
        )
        attributes = raw.get("attributes", [])
        _require(
            isinstance(attributes, list) and all(isinstance(a, str) and a for a in attributes),
            f"object {image_id!r}/{obj_id!r}: attributes must be a list of non-empty strings",
        )
        relations = raw.get("relations", [])
        _require(isinstance(relations, list), f"object {image_id!r}/{obj_id!r}: relations must be a list")
        for rel in relations:
            _require(
                isinstance(rel, dict) and isinstance(rel.get("name"), str) and rel["name"]
                and isinstance(rel.get("object"), str) and rel["object"],
                f"object {image_id!r}/{obj_id!r}: bad relation record {rel!r}",
            )
            pending_edges.append((obj_id, synonyms.canonicalize(rel["name"]), rel["object"]))
        nodes.append(
            ObjectNode(
                id=obj_id,
                category=synonyms.canonicalize(name),
                attributes=tuple(synonyms.canonicalize(a) for a in attributes),
                box=box,
            )
        )

    known = {n.id for n in nodes}
    edges: list[RelationEdge] = []
    seen: set[tuple[str, str, str]] = set()
    dropped = 0
    for subject, predicate, obj in pending_edges:
        if obj not in known:
            raise DanglingEdge(
                f"image {image_id!r}: relation {subject!r} -[{predicate}]-> {obj!r} targets a missing object"
            )
        if subject == obj:
            raise SchemaViolation(f"image {image_id!r}: self-relation on object {subject!r}")
        key = (subject, predicate, obj)
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        edges.append(RelationEdge(subject=subject, predicate=predicate, object=obj))
    if dropped:
        log.warning("image %s: dropped %d duplicate relation(s)", image_id, dropped)

    return SceneGraph(image_id=image_id, width=width, height=height, nodes=tuple(nodes), edges=tuple(edges))


def load_corpus(source: IO, synonyms: SynonymTable | None = None) -> Corpus:
    """Parse, validate, and canonicalize a scene-graph corpus.

    Args:
        source: readable text or byte stream holding the corpus JSON document.
        synonyms: optional synonym table; omitted means identity mapping.

    Raises:
        MalformedDocument: the stream is not valid UTF-8 JSON.
        SchemaViolation: the document deviates from the documented schema.
        DanglingEdge: a relation points at an object id that does not exist.
    """
    synonyms = synonyms or SynonymTable.empty()
    # Every number of a corpus is checked here, so a NaN or an infinity is
    # reported by the box rule, naming its object.
    data = load_json(source, "corpus", schema_checks_numbers=True)
    if not isinstance(data, dict):
        raise SchemaViolation("corpus must be a JSON object keyed by image id")
    graphs: dict[str, SceneGraph] = {}
    for image_id, payload in data.items():
        _require(isinstance(image_id, str) and bool(image_id), f"bad image id {image_id!r}")
        graphs[image_id] = _parse_graph(image_id, payload, synonyms)
    return Corpus.build(graphs)


def load_corpus_path(path: str, synonyms: SynonymTable | None = None) -> Corpus:
    with open(path, "rb") as handle:
        return load_corpus(handle, synonyms)


def target_exclusion_reason(
    graph: SceneGraph,
    node: ObjectNode,
    min_area_ratio: float,
    blacklist: frozenset[str],
) -> str | None:
    """Why a region cannot serve as a target: "area", "blacklist", or None."""
    if node.box.area < min_area_ratio * (graph.width * graph.height):
        return "area"
    if node.category in blacklist:
        return "blacklist"
    return None
