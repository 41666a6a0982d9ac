"""Controlled distractor discovery for multi-image grounding tasks.

For every expression we look for images that are visually plausible but
provably wrong, graded by how much they share with the target: nothing of
the target's category, the category alone, the category with the described
attributes, or all mentioned categories without the described relations.
Every distractor image must contain no region at all that satisfies the
expression's reasoning tree, so the target stays the unique ground truth
across the whole task instance.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice
from json.decoder import WHITESPACE, scanstring
from typing import Callable, Mapping

from .errors import DataError, SchemaViolation
from .expression import ExpressionRecord
from .reasoning import (
    LogicForm,
    ReasoningTree,
    TreeEdge,
    TreeNode,
    match,
    tree_categories,
)
from .scene_graph import Corpus, SceneGraph, box_record
from .util import _DECODER, decode_json

DEFAULT_PER_TYPE = 3


class DistractorType(str, Enum):
    """How a distracting image relates to the expression's content."""

    DIFF_CAT = "DiffCat"
    CAT = "Cat"
    CAT_ATTR = "CatAttr"
    CAT_CAT = "CatCat"


# An image holding the root category qualifies for these types; it is assigned
# to the most specific unfilled slot, in this order.
_ASSIGNMENT_PRIORITY = (
    DistractorType.CAT_CAT,
    DistractorType.CAT_ATTR,
    DistractorType.CAT,
)

# The images a scan assigns to each type, in scan order.
Slots = Mapping[DistractorType, tuple[str, ...]]
# One image's candidate regions: (object id, box record) pairs.
Regions = tuple[tuple[str, dict], ...]


def _bare_edge(edge: TreeEdge) -> TreeEdge:
    return replace(edge, child=TreeNode(edge.child.category))


def _skeleton(tree: ReasoningTree) -> ReasoningTree:
    """The tree with every node's attributes, order and negation removed."""
    extension = tree.chain_extension
    return replace(
        tree,
        root=TreeNode(tree.root.category),
        edges=tuple(_bare_edge(e) for e in tree.edges),
        chain_extension=None if extension is None else _bare_edge(extension),
    )


def _realized(skeleton: ReasoningTree, graph: SceneGraph,
              lexicon: Mapping[str, str] | None) -> bool:
    """Does any object realize a :func:`_skeleton`'s categories and relations?"""
    if not skeleton.edges:
        return False
    if skeleton.form is not LogicForm.SAME:
        return bool(match(skeleton, graph))
    # Any shared value of the edge's category counts; exclusivity is not asked.
    if lexicon is None:
        return False
    edge = skeleton.edges[0]
    for obj in graph.nodes_of_category(skeleton.root.category):
        for peer in graph.nodes_of_category(edge.child.category):
            if peer.id != obj.id and any(
                value in peer.attribute_set and lexicon.get(value) == edge.category
                for value in obj.attributes
            ):
                return True
    return False


def _structural_ok(dtype: DistractorType, graph: SceneGraph, tree: ReasoningTree,
                   skeleton: ReasoningTree, lexicon: Mapping[str, str] | None) -> bool:
    """The per-type condition on image content, excluding the no-match check."""
    category_objects = graph.nodes_of_category(tree.root.category)
    if dtype is DistractorType.DIFF_CAT:
        return not category_objects
    if not category_objects:
        return False
    if dtype is DistractorType.CAT:
        return True
    if dtype is DistractorType.CAT_ATTR:
        wanted = set(tree.root.attributes)
        return any(wanted <= obj.attribute_set for obj in category_objects)
    # CatCat: every mentioned category present, relational skeleton unrealized.
    for category in tree_categories(tree):
        if not graph.nodes_of_category(category):
            return False
    return not _realized(skeleton, graph, lexicon)


def type_predicate(dtype: DistractorType, graph: SceneGraph, expr: ExpressionRecord,
                   lexicon: Mapping[str, str] | None = None) -> bool:
    """Is this image a valid distractor of the given type for this expression?

    All four types additionally demand that no region of the image satisfies
    the expression's tree, which keeps the target unique across the instance.
    """
    if not _structural_ok(dtype, graph, expr.tree, _skeleton(expr.tree), lexicon):
        return False
    return not match(expr.tree, graph, lexicon)


@dataclass
class TaskInstance:
    """An expression plus its candidate image pool for evaluation.

    ``candidate_regions`` holds the ``(object id, box record)`` pair of every
    ground-truth region of the target image and of each distractor image;
    exactly one region in the pool (the target) satisfies the expression's tree.
    """

    expression: ExpressionRecord
    target_image: str
    distractors: dict[DistractorType, tuple[str, ...]]
    candidate_regions: dict[str, Regions]

    @property
    def images(self) -> tuple[str, ...]:
        ordered = [self.target_image]
        for dtype in DistractorType:
            ordered.extend(self.distractors[dtype])
        return tuple(ordered)

    def to_jsonable(self) -> dict:
        return {
            "expression": self.expression.to_jsonable(),
            "target_image": self.target_image,
            "distractors": {dtype.value: list(ids) for dtype, ids in self.distractors.items()},
            "candidate_regions": {
                image_id: [list(region) for region in regions] for image_id, regions in self.candidate_regions.items()
            },
        }

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "TaskInstance":
        return cls._from_jsonable(data, checked_regions=False)

    @classmethod
    def _from_jsonable(cls, data: Mapping, checked_regions: bool) -> "TaskInstance":
        """:meth:`from_jsonable`; with ``checked_regions``, ``data["candidate_regions"]``
        is a dict whose lists :func:`region_list` has already checked."""
        if not isinstance(data, Mapping):
            raise SchemaViolation(f"task instance must be an object, got {type(data).__name__}")
        for key in ("expression", "target_image", "distractors", "candidate_regions"):
            if key not in data:
                raise SchemaViolation(f"task instance missing {key!r}")
        target_image = data["target_image"]
        if not isinstance(target_image, str):
            raise SchemaViolation(f"target_image must be a string, got {target_image!r}")
        try:
            distractors = {
                DistractorType(name): _image_ids(ids)
                for name, ids in data["distractors"].items()
            }
        except (ValueError, AttributeError) as exc:
            raise SchemaViolation(f"bad distractor map: {exc}") from exc
        missing = set(DistractorType) - set(distractors)
        if missing:
            raise SchemaViolation(f"distractor map missing types {sorted(t.value for t in missing)}")
        regions = data["candidate_regions"]
        if not checked_regions:
            if not isinstance(regions, Mapping):
                raise SchemaViolation(f"candidate_regions must be an object, got {type(regions).__name__}")
            regions = {image_id: region_list(image_id, raw) for image_id, raw in regions.items()}
        instance = cls(
            expression=ExpressionRecord.from_jsonable(data["expression"]),
            target_image=target_image,
            distractors=distractors,
            candidate_regions=regions,
        )
        unlisted = [image_id for image_id in instance.images if image_id not in regions]
        if unlisted:
            raise SchemaViolation(f"no candidate_regions entry for images {unlisted}")
        return instance


def region_list(image_id: str, raw: object) -> Regions:
    """The checked ``(object id, box record)`` pairs of one image's decoded region list."""
    if not isinstance(raw, list):
        raise SchemaViolation(f"candidate regions of {image_id!r} must be a list, got {type(raw).__name__}")
    parsed = []
    for region in raw:
        if type(region) is not list or len(region) != 2 or type(region[0]) is not str:
            raise SchemaViolation(
                f"candidate region of {image_id!r} must be an [object id, box] pair, got {region!r}"
            )
        parsed.append((region[0], box_record(region[1])))
    return tuple(parsed)


class InstanceReader:
    """Parses instance lines, decoding and checking each image's region list once per run.

    Instances repeat the same images' region lists many times.  For each
    image id the reader keeps the JSON text of the last region list it read
    and the checked tuple parsed from it; a later line that holds that text
    at that place reuses the tuple, which is exact because a JSON array ends
    at its matching ``]``.  Only the top-level object and its
    ``candidate_regions`` object are walked here; every other value goes
    through the strict scanner of :func:`decode_json`.  A line that does not
    walk cleanly, for whatever reason, is parsed again as
    ``TaskInstance.from_jsonable(decode_json(line))``, so every error and
    every result equals that one rule's.  Memory is one entry per distinct
    image id.
    """

    def __init__(self) -> None:
        self._memo: dict[str, tuple[str, Regions]] = {}

    def __call__(self, line: str | bytes) -> TaskInstance:
        if isinstance(line, bytes):
            line = line.decode(json.detect_encoding(line), "surrogatepass")
        try:
            return TaskInstance._from_jsonable(self._walk(line), checked_regions=True)
        except (StopIteration, ValueError, RecursionError, DataError):
            return TaskInstance.from_jsonable(decode_json(line))

    def _walk(self, s: str) -> dict:
        """The line's top-level object, with its region lists checked."""
        region_list_at = functools.partial(self._region_list, s)

        def member(key: str, i: int) -> tuple[object, int]:
            if key == "candidate_regions":
                return _json_object(s, i, region_list_at)
            return _scan_once(s, i)

        data, end = _json_object(s, _ws(s, 0).end(), member)
        if _ws(s, end).end() != len(s):
            raise ValueError("extra data")
        return data

    def _region_list(self, s: str, image_id: str, i: int) -> tuple[Regions, int]:
        entry = self._memo.get(image_id)
        if entry is not None and s.startswith(entry[0], i):
            return entry[1], i + len(entry[0])
        raw, end = _scan_once(s, i)
        parsed = region_list(image_id, raw)
        self._memo[image_id] = (s[i:end], parsed)
        return parsed, end


_ws = WHITESPACE.match
_scan_once = _DECODER.scan_once


def _json_object(s: str, i: int, value: Callable[[str, int], tuple[object, int]]) -> tuple[dict, int]:
    """The JSON object at ``s[i]`` and the index after it; ``value(key, j)`` reads the member value at ``s[j]``.

    Anything irregular raises ``ValueError``.  A repeated key keeps its
    first place and takes its last value, as with :func:`json.loads`.
    """
    if s[i:i + 1] != "{":
        raise ValueError("expected an object")
    members: dict = {}
    i = _ws(s, i + 1).end()
    if s[i:i + 1] != "}":
        while True:
            if s[i:i + 1] != '"':
                raise ValueError("expected a key")
            key, i = scanstring(s, i + 1)
            i = _ws(s, i).end()
            if s[i:i + 1] != ":":
                raise ValueError("expected ':'")
            members[key], i = value(key, _ws(s, i + 1).end())
            i = _ws(s, i).end()
            if s[i:i + 1] != ",":
                break
            i = _ws(s, i + 1).end()
        if s[i:i + 1] != "}":
            raise ValueError("expected '}'")
    return members, i + 1


def instance_line(instance: TaskInstance, region_json: dict[str, tuple[Regions, str]]) -> str:
    """``json.dumps(instance.to_jsonable(), sort_keys=True)``, encoding each image's regions once.

    ``region_json`` maps an image id to the regions last encoded for it and
    their ``"image id": [regions]`` member.  The member is reused only for
    the very same regions object, never for an equal one: ``1`` and ``1.0``
    compare equal but encode differently.  ``candidate_regions`` sorts
    before every other key, so the line is that object followed by the
    rest of the instance.
    """
    members = []
    for image_id in sorted(instance.candidate_regions):
        regions = instance.candidate_regions[image_id]
        cached = region_json.get(image_id)
        if cached is not None and cached[0] is regions:
            member = cached[1]
        else:
            member = f"{json.dumps(image_id)}: {json.dumps(regions, sort_keys=True)}"
            region_json[image_id] = (regions, member)
        members.append(member)
    rest = replace(instance, candidate_regions={}).to_jsonable()
    del rest["candidate_regions"]
    return '{"candidate_regions": {' + ", ".join(members) + "}, " + json.dumps(rest, sort_keys=True)[1:]


def _image_ids(ids) -> tuple[str, ...]:
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise ValueError(f"image ids must be a list of strings, got {ids!r}")
    return tuple(ids)


def _scan(
    corpus: Corpus,
    expr: ExpressionRecord,
    per_type: int,
    lexicon: Mapping[str, str] | None,
) -> Slots:
    """Greedy pass in ascending image-id order, one slot per image.

    DiffCat takes the first images without the root category.  The other
    types walk only the images that hold it; an image matching the tree fills
    no slot, any other fills the most specific open type it qualifies for.
    """
    tree = expr.tree
    category = tree.root.category
    slots: dict[DistractorType, list[str]] = {dtype: [] for dtype in DistractorType}
    slots[DistractorType.DIFF_CAT] = list(islice(
        (image_id for image_id, graph in corpus.graphs.items()
         if image_id != expr.image_id and not graph.nodes_of_category(category)),
        per_type,
    ))
    skeleton = _skeleton(tree)
    for image_id in corpus.images_with_category(category):
        if all(len(slots[dtype]) >= per_type for dtype in _ASSIGNMENT_PRIORITY):
            break
        if image_id == expr.image_id:
            continue
        graph = corpus.graphs[image_id]
        for dtype in _ASSIGNMENT_PRIORITY:
            if len(slots[dtype]) >= per_type:
                continue
            if not _structural_ok(dtype, graph, tree, skeleton, lexicon):
                continue
            # Common to every type: no region may satisfy the tree.
            if not match(tree, graph, lexicon):
                slots[dtype].append(image_id)
            break
    return {dtype: tuple(ids) for dtype, ids in slots.items()}


def _slots(
    corpus: Corpus,
    expr: ExpressionRecord,
    per_type: int,
    lexicon: Mapping[str, str] | None,
    scans: dict[ReasoningTree, Slots] | None,
) -> Slots:
    """The scan's slots for ``expr``, taken from or added to ``scans`` when given."""
    if scans is None:
        return _scan(corpus, expr, per_type, lexicon)
    slots = scans.get(expr.tree)
    if slots is None:
        slots = scans[expr.tree] = _scan(corpus, expr, per_type, lexicon)
    return slots


def find_distractors(
    corpus: Corpus,
    expr: ExpressionRecord,
    per_type: int = DEFAULT_PER_TYPE,
    lexicon: Mapping[str, str] | None = None,
    scans: dict[ReasoningTree, Slots] | None = None,
) -> TaskInstance | None:
    """Scan the corpus for ``per_type`` distractors of each type.

    Images are visited in ascending image-id order, the target image is
    skipped, and each image fills at most one slot (the most specific type it
    qualifies for that still has room).  The scan is purely deterministic: no
    randomness is involved.  Returns None when any type comes up short; a
    short instance is discarded rather than padded.

    ``scans``, a dict shared by the calls of one run with one ``per_type``
    and ``lexicon``, keeps each distinct tree's slots, so a tree is scanned
    once however many expressions carry it.  It requires every expression to
    match exactly its target image, as ``distract`` checks: a matching image
    fills no slot and the target holds the root category, so skipping the
    target then changes nothing and the slots depend on the tree alone.
    Without ``scans`` each call scans for itself.
    """
    slots = _slots(corpus, expr, per_type, lexicon, scans)
    if any(len(ids) < per_type for ids in slots.values()):
        return None
    instance_images = [expr.image_id]
    for dtype in DistractorType:
        instance_images.extend(slots[dtype])
    return TaskInstance(
        expression=expr,
        target_image=expr.image_id,
        distractors=dict(slots),
        candidate_regions={image_id: corpus.graphs[image_id].regions for image_id in instance_images},
    )


def missing_counts(
    corpus: Corpus,
    expr: ExpressionRecord,
    per_type: int = DEFAULT_PER_TYPE,
    lexicon: Mapping[str, str] | None = None,
    scans: dict[ReasoningTree, Slots] | None = None,
) -> dict[DistractorType, int]:
    """How many distractors each type is short by; all zeros means viable.

    With the ``scans`` that ``find_distractors`` filled for ``expr``, this
    reads its slots and scans nothing.
    """
    slots = _slots(corpus, expr, per_type, lexicon, scans)
    return {dtype: max(0, per_type - len(ids)) for dtype, ids in slots.items()}
