"""Scene-graph loading, validation, canonical ordering, and target filters."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, strategies as st

from refsynth.config import PipelineConfig
from refsynth.errors import ConfigError, DanglingEdge, MalformedDocument, SchemaViolation
from refsynth.scene_graph import (
    BoundingBox,
    ObjectNode,
    RelationEdge,
    SynonymTable,
    box_record,
    load_corpus,
    load_synonyms,
    target_exclusion_reason,
)

from .conftest import BAD_BOX_EDITS, CORPUS_PATH, TARGET_RULE, box, build_graph


class TestBoundingBox:
    def test_area_and_center(self):
        b = BoundingBox(x=10, y=20, w=100, h=50)
        assert b.area == 5000
        assert b.center_x == 60.0

    @pytest.mark.parametrize("bad", [dict(w=0), dict(h=0), dict(w=-3), dict(x=-1), dict(y=-2)])
    def test_rejects_degenerate_boxes(self, bad):
        params = dict(x=0, y=0, w=10, h=10)
        params.update(bad)
        with pytest.raises(SchemaViolation):
            box_record(params)

    def test_json_round_trip(self):
        b = BoundingBox(x=1, y=2, w=3, h=4)
        assert BoundingBox(**box_record(b.to_jsonable())) == b


class TestBoxRecord:
    """One box rule, for the corpus loader and for every record."""

    @pytest.mark.parametrize("edit", BAD_BOX_EDITS.values(), ids=BAD_BOX_EDITS)
    def test_rejects_a_bad_box(self, edit):
        with pytest.raises(SchemaViolation):
            box_record(edit({"x": 1, "y": 2, "w": 30, "h": 40}))

    @pytest.mark.parametrize("edit", BAD_BOX_EDITS.values(), ids=BAD_BOX_EDITS)
    def test_load_corpus_rejects_a_bad_box_naming_the_object(self, edit):
        doc = _doc({"o1": edit({"name": "cup", "x": 1, "y": 2, "w": 30, "h": 40})})
        with pytest.raises(SchemaViolation, match="'img'/'o1'"):
            load_corpus(io.StringIO(doc))

    @pytest.mark.parametrize("data", [None, [1, 2, 3, 4], "xywh", 5])
    def test_rejects_a_non_object(self, data):
        with pytest.raises(SchemaViolation):
            box_record(data)

    def test_keeps_the_four_keys_only(self):
        data = {"h": 4.5, "w": 3, "y": 0, "x": 0.0, "label": "cup"}
        assert box_record(data) == {"x": 0.0, "y": 0, "w": 3, "h": 4.5}

    def test_large_finite_values_pass(self):
        data = {"x": 1e308, "y": 0, "w": 1e308, "h": 10**400}
        assert box_record(data) == data


class TestObjectNode:
    def test_attributes_are_deduped_and_sorted(self):
        node = ObjectNode(id="o1", category="cup", attributes=("red", "big", "red"), box=box())
        assert node.attributes == ("big", "red")
        assert node.attribute_set == frozenset({"big", "red"})

    def test_self_relation_rejected(self):
        with pytest.raises(SchemaViolation):
            RelationEdge(subject="o1", predicate="near", object="o1")


class TestSceneGraph:
    def test_nodes_and_edges_are_canonically_ordered(self):
        graph = build_graph(
            "img",
            {
                "b": ("cup", (), box(x=10)),
                "a": ("cup", (), box(x=90)),
            },
            edges=[("b", "near", "a"), ("a", "near", "b")],
        )
        assert [n.id for n in graph.nodes] == ["a", "b"]
        assert [(e.subject, e.object) for e in graph.edges] == [("a", "b"), ("b", "a")]

    def test_category_order_ranks_by_center_x_then_id(self):
        graph = build_graph(
            "img",
            {
                "o1": ("cup", (), box(x=200)),
                "o2": ("cup", (), box(x=0)),
                "o3": ("cup", (), box(x=0)),
                "o4": ("dog", (), box(x=50)),
            },
        )
        assert graph.category_order("cup") == ("o2", "o3", "o1")
        assert graph.category_order("dog") == ("o4",)
        assert graph.category_order("cat") == ()

    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(10, 120)),
            min_size=1,
            max_size=8,
        )
    )
    def test_category_order_is_a_stable_center_x_ranking(self, placements):
        objects = {
            f"o{i}": ("cup", (), box(x=x, w=w))
            for i, (x, w) in enumerate(placements)
        }
        graph = build_graph("img", objects, width=700)
        ordered = graph.category_order("cup")
        assert sorted(ordered) == sorted(objects)
        keys = [(graph.node(oid).box.center_x, oid) for oid in ordered]
        assert keys == sorted(keys)


class TestSynonyms:
    def test_canonicalize_and_alternatives(self):
        table = SynonymTable({"sofa": ("sofa", "couch")})
        assert table.canonicalize("couch") == "sofa"
        assert table.canonicalize("sofa") == "sofa"
        assert table.canonicalize("lamp") == "lamp"
        assert table.alternatives("sofa") == ("couch",)
        assert table.alternatives("lamp") == ()

    def test_conflicting_surface_form_rejected(self):
        with pytest.raises(SchemaViolation):
            SynonymTable({"sofa": ("sofa", "couch"), "bench": ("bench", "couch")})

    def test_load_from_json(self):
        table = load_synonyms(io.StringIO('{"cup": ["cup", "mug"]}'))
        assert table.canonicalize("mug") == "cup"


def _doc(objects, width=640, height=480):
    return json.dumps({"img": {"width": width, "height": height, "objects": objects}})


class TestLoadCorpus:
    def test_happy_path(self):
        doc = _doc(
            {
                "o1": {"name": "cup", "x": 0, "y": 0, "w": 60, "h": 60, "attributes": ["red"],
                       "relations": [{"name": "near", "object": "o2"}]},
                "o2": {"name": "dog", "x": 100, "y": 0, "w": 80, "h": 80},
            }
        )
        corpus = load_corpus(io.StringIO(doc))
        graph = corpus.graphs["img"]
        assert graph.node("o1").attributes == ("red",)
        assert graph.edges[0].predicate == "near"
        assert corpus.images_with_category("dog") == ("img",)

    def test_malformed_json(self):
        with pytest.raises(MalformedDocument):
            load_corpus(io.StringIO("{not json"))

    def test_missing_field(self):
        with pytest.raises(SchemaViolation):
            load_corpus(io.StringIO(json.dumps({"img": {"width": 10, "objects": {}}})))

    def test_dangling_relation(self):
        doc = _doc({"o1": {"name": "cup", "x": 0, "y": 0, "w": 60, "h": 60,
                           "relations": [{"name": "near", "object": "ghost"}]}})
        with pytest.raises(DanglingEdge):
            load_corpus(io.StringIO(doc))

    def test_box_outside_image(self):
        doc = _doc({"o1": {"name": "cup", "x": 600, "y": 0, "w": 100, "h": 60}})
        with pytest.raises(SchemaViolation):
            load_corpus(io.StringIO(doc))

    def test_duplicate_relations_are_dropped(self):
        doc = _doc(
            {
                "o1": {"name": "cup", "x": 0, "y": 0, "w": 60, "h": 60,
                       "relations": [{"name": "near", "object": "o2"},
                                     {"name": "near", "object": "o2"}]},
                "o2": {"name": "dog", "x": 100, "y": 0, "w": 80, "h": 80},
            }
        )
        corpus = load_corpus(io.StringIO(doc))
        assert len(corpus.graphs["img"].edges) == 1

    def test_synonyms_applied_at_load(self):
        doc = _doc({"o1": {"name": "mug", "x": 0, "y": 0, "w": 60, "h": 60,
                           "attributes": ["crimson"]}})
        table = SynonymTable({"cup": ("cup", "mug"), "red": ("red", "crimson")})
        corpus = load_corpus(io.StringIO(doc), table)
        node = corpus.graphs["img"].node("o1")
        assert node.category == "cup"
        assert node.attributes == ("red",)

    def test_round_trip_preserves_everything(self, corpus):
        """Every field of the fixture document reaches the loaded graphs."""
        with open(CORPUS_PATH, encoding="utf-8") as handle:
            document = json.load(handle)
        assert list(corpus.graphs) == sorted(document)
        for image_id, raw in document.items():
            graph = corpus.graphs[image_id]
            assert (graph.image_id, graph.width, graph.height) == (image_id, raw["width"], raw["height"])
            assert sorted(node.id for node in graph.nodes) == sorted(raw["objects"])
            for obj_id, obj in raw["objects"].items():
                node = graph.node(obj_id)
                assert node.category == obj["name"]
                assert node.attributes == tuple(sorted(set(obj.get("attributes", []))))
                assert node.box == BoundingBox(x=obj["x"], y=obj["y"], w=obj["w"], h=obj["h"])
                relations = {(r["name"], r["object"]) for r in obj.get("relations", [])}
                out_edges = [(edge.predicate, edge.object) for edge in graph.out_edges(obj_id)]
                assert sorted(out_edges) == sorted(relations)


class TestTargetFilters:
    def test_small_regions_are_excluded(self):
        graph = build_graph(
            "img",
            {
                "big": ("cup", (), box(w=100, h=100)),
                "tiny": ("cup", (), box(w=30, h=30)),
            },
        )
        assert target_exclusion_reason(graph, graph.node("big"), *TARGET_RULE) is None
        assert target_exclusion_reason(graph, graph.node("tiny"), *TARGET_RULE) == "area"

    def test_blacklisted_categories_are_excluded(self):
        graph = build_graph(
            "img",
            {
                "o1": ("sky", (), box(w=640, h=80)),
                "o2": ("cup", (), box(w=100, h=100)),
            },
        )
        assert target_exclusion_reason(graph, graph.node("o2"), *TARGET_RULE) is None
        assert target_exclusion_reason(graph, graph.node("o1"), *TARGET_RULE) == "blacklist"

    def test_ratio_bounds_are_checked(self):
        # The config owns the range; generate reads the ratio only through it.
        with pytest.raises(ConfigError, match="^min_area_ratio "):
            PipelineConfig(min_area_ratio=1.5).validated()
