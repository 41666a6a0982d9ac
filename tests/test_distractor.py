"""Distractor discovery: type predicates, priority, and instance assembly."""

from __future__ import annotations

import dataclasses
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import refsynth.distractor as distractor
from refsynth.distractor import (
    DistractorType,
    InstanceReader,
    TaskInstance,
    _realized,
    _skeleton,
    find_distractors,
    instance_line,
    missing_counts,
    type_predicate,
)
from refsynth.expression import default_attribute_lexicon, default_templates, fill
from refsynth.reasoning import (
    EDGE_RELATION,
    LogicForm,
    OrderSpec,
    ReasoningTree,
    TreeEdge,
    TreeNode,
    match,
    tree_categories,
)
from refsynth.errors import DataError
from refsynth.scene_graph import Corpus, SynonymTable
from refsynth.util import decode_json, parse_jsonl

from .conftest import box, build_graph
from .oracles import brute_force_match, brute_force_skeleton
from .test_reasoning import ATTRIBUTES, graphs, trees

LEXICON = default_attribute_lexicon()


def chain_expression():
    """A red cup on a table, rendered from its tree, rooted in image t0."""
    tree = ReasoningTree(
        form=LogicForm.CHAIN,
        root=TreeNode("cup", ("red",)),
        edges=(TreeEdge.relation("on", TreeNode("table")),),
    )
    template = next(
        t
        for t in default_templates()
        if t.form is LogicForm.CHAIN
        and t.pattern == "The <att0> <obj0> that is <rel0> the <att1> <obj1>."
    )
    return fill(
        template,
        tree,
        SynonymTable.empty(),
        random.Random(0),
        expr_id="t0:o1:chain",
        image_id="t0",
        target_id="o1",
    )


def toy_corpus() -> Corpus:
    graphs = {}
    graphs["t0"] = build_graph(
        "t0",
        {
            "o1": ("cup", ("red",), box(x=0)),
            "o2": ("table", (), box(x=100)),
            "o3": ("dog", (), box(x=300)),
        },
        edges=[("o1", "on", "o2")],
    )
    for i in (1, 2, 3):
        # No cup at all.
        graphs[f"d{i}"] = build_graph(f"d{i}", {"o1": ("dog", (), box())})
        # A cup, but not red and no table.
        graphs[f"c{i}"] = build_graph(f"c{i}", {"o1": ("cup", ("blue",), box())})
        # A red cup, still no table.
        graphs[f"a{i}"] = build_graph(f"a{i}", {"o1": ("cup", ("red",), box())})
        # Cup and table both present but unrelated.
        graphs[f"k{i}"] = build_graph(
            f"k{i}",
            {
                "o1": ("cup", ("blue",), box(x=0)),
                "o2": ("table", (), box(x=200)),
            },
        )
    # Poison: satisfies the tree, must never be used as a distractor.
    graphs["p0"] = build_graph(
        "p0",
        {
            "o1": ("cup", ("red",), box(x=0)),
            "o2": ("table", (), box(x=100)),
        },
        edges=[("o1", "on", "o2")],
    )
    return Corpus.build(graphs)


@st.composite
def planted_cases(draw, form):
    """A tree of the given form and a graph that may hold parts of its skeleton.

    Random graphs seldom realize a skeleton, so one object per tree node is
    added with random attributes, and each of the tree's relation edges is
    planted between them or left out.
    """
    tree = draw(trees(form))
    graph = draw(graphs())
    objects = {n.id: (n.category, n.attributes, n.box) for n in graph.nodes}
    edges = {(e.subject, e.predicate, e.object) for e in graph.edges}

    def plant(category):
        object_id = f"p{len(objects)}"
        attrs = tuple(draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=2, unique=True)))
        objects[object_id] = (category, attrs, box())
        return object_id

    root = plant(tree.root.category)
    for edge in tree.edges:
        child = plant(edge.child.category)
        if edge.kind == EDGE_RELATION and draw(st.booleans()):
            edges.add((root, edge.predicate, child))
        extension = tree.chain_extension
        if extension is not None and draw(st.booleans()):
            edges.add((child, extension.predicate, plant(extension.child.category)))
    return tree, build_graph("img", objects, sorted(edges))


class TestTypePredicates:
    def test_each_image_kind_maps_to_its_type(self):
        corpus = toy_corpus()
        expr = chain_expression()
        cases = {
            "d1": DistractorType.DIFF_CAT,
            "c1": DistractorType.CAT,
            "a1": DistractorType.CAT_ATTR,
            "k1": DistractorType.CAT_CAT,
        }
        for image_id, expected in cases.items():
            graph = corpus.graphs[image_id]
            assert type_predicate(expected, graph, expr, LEXICON), image_id

    def test_satisfying_image_fails_every_type(self):
        corpus = toy_corpus()
        expr = chain_expression()
        poison = corpus.graphs["p0"]
        assert match(expr.tree, poison, LEXICON)
        for dtype in DistractorType:
            assert not type_predicate(dtype, poison, expr, LEXICON)

    def test_edge_free_tree_is_never_skeleton_realized(self):
        tree = ReasoningTree(
            form=LogicForm.ORDER,
            root=TreeNode("cup", order_spec=OrderSpec(index=2, direction="left")),
        )
        graph = build_graph("img", {"o1": ("cup", (), box())})
        assert not _realized(_skeleton(tree), graph, LEXICON)

    @pytest.mark.parametrize("form", list(LogicForm))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), with_lexicon=st.booleans())
    def test_skeleton_agrees_with_independent_reimplementation(self, form, data, with_lexicon):
        tree, graph = data.draw(planted_cases(form))
        lexicon = LEXICON if with_lexicon else None
        assert _realized(_skeleton(tree), graph, lexicon) == brute_force_skeleton(tree, graph, lexicon)

    def test_category_presence_promotes_cat_to_cat_cat_for_edge_free_trees(self):
        # One cup cannot be second from the left, so the tree matches nothing
        # here; with no edges to realize, the image qualifies as the
        # every-category-present type rather than plain category-present.
        tree = ReasoningTree(
            form=LogicForm.ORDER,
            root=TreeNode("cup", order_spec=OrderSpec(index=2, direction="left")),
        )
        template = next(
            t for t in default_templates()
            if t.form is LogicForm.ORDER and t.pattern == "The <idx> <obj0> from the <dir>."
        )
        expr = fill(template, tree, SynonymTable.empty(), random.Random(0),
                    expr_id="x:o1:order", image_id="x", target_id="o1")
        graph = build_graph("img", {"o1": ("cup", (), box())})
        assert type_predicate(DistractorType.CAT_CAT, graph, expr, LEXICON)
        assert type_predicate(DistractorType.CAT, graph, expr, LEXICON)


class TestFindDistractors:
    def test_full_instance_from_the_toy_corpus(self):
        corpus = toy_corpus()
        expr = chain_expression()
        instance = find_distractors(corpus, expr, 3, LEXICON)
        assert instance is not None
        assert instance.distractors == {
            DistractorType.DIFF_CAT: ("d1", "d2", "d3"),
            DistractorType.CAT: ("c1", "c2", "c3"),
            DistractorType.CAT_ATTR: ("a1", "a2", "a3"),
            DistractorType.CAT_CAT: ("k1", "k2", "k3"),
        }
        assert instance.images[0] == "t0"
        assert len(instance.images) == 13
        assert "p0" not in instance.images
        assert set(instance.candidate_regions) == set(instance.images)
        assert instance.candidate_regions["t0"] == (
            ("o1", corpus.graphs["t0"].node("o1").box.to_jsonable()),
            ("o2", corpus.graphs["t0"].node("o2").box.to_jsonable()),
            ("o3", corpus.graphs["t0"].node("o3").box.to_jsonable()),
        )

    def test_shortage_discards_the_expression(self):
        corpus = toy_corpus()
        expr = chain_expression()
        pruned = Corpus.build(
            {k: g for k, g in corpus.graphs.items() if k != "a3"}
        )
        assert find_distractors(pruned, expr, 3, LEXICON) is None
        missing = missing_counts(pruned, expr, 3, LEXICON)
        assert missing[DistractorType.CAT_ATTR] == 1
        assert sum(missing.values()) == 1

    def test_one_image_fills_at_most_one_slot(self, corpus, instances):
        for instance in instances:
            all_ids = [i for ids in instance.distractors.values() for i in ids]
            assert len(all_ids) == len(set(all_ids)) == 12
            assert instance.target_image not in all_ids

    def test_every_distractor_image_defeats_the_expression(self, corpus, instances):
        assert len(instances) >= 25
        for instance in instances:
            tree = instance.expression.tree
            for dtype, image_ids in instance.distractors.items():
                for image_id in image_ids:
                    graph = corpus.graphs[image_id]
                    assert brute_force_match(tree, graph, LEXICON) == set()

    def test_type_structure_holds_on_the_fixture(self, corpus, instances):
        for instance in instances:
            tree = instance.expression.tree
            root = tree.root.category
            needed = set(tree_categories(tree))
            for image_id in instance.distractors[DistractorType.DIFF_CAT]:
                assert not corpus.graphs[image_id].nodes_of_category(root)
            for dtype in (DistractorType.CAT, DistractorType.CAT_ATTR, DistractorType.CAT_CAT):
                for image_id in instance.distractors[dtype]:
                    assert corpus.graphs[image_id].nodes_of_category(root)
            for image_id in instance.distractors[DistractorType.CAT_ATTR]:
                wanted = set(tree.root.attributes)
                graph = corpus.graphs[image_id]
                assert any(
                    wanted <= set(n.attributes) for n in graph.nodes_of_category(root)
                )
            for image_id in instance.distractors[DistractorType.CAT_CAT]:
                graph = corpus.graphs[image_id]
                present = {n.category for n in graph.nodes}
                assert needed <= present


@st.composite
def recurring_tree_cases(draw):
    """A corpus in which trees recur, and every expression its trees give.

    The toy corpus is joined by planted graphs, each under one to three image
    ids, so a tree that matches a planted graph matches every copy.  Each
    tree yields one expression per image where it matches exactly one
    object, which is what ``distract`` asks of its input.
    """
    graphs = dict(toy_corpus().graphs)
    tree_list = [chain_expression().tree]
    for i in range(draw(st.integers(1, 4))):
        tree, graph = draw(planted_cases(draw(st.sampled_from(list(LogicForm)))))
        tree_list.append(tree)
        for copy in range(draw(st.integers(1, 3))):
            image_id = f"g{i}.{copy}"
            graphs[image_id] = dataclasses.replace(graph, image_id=image_id)
    corpus = Corpus.build(graphs)
    base = chain_expression()
    expressions = []
    for tree in tree_list:
        for image_id, graph in corpus.graphs.items():
            found = match(tree, graph, LEXICON)
            if len(found) == 1:
                (target,) = found
                expressions.append(dataclasses.replace(
                    base, expr_id=f"{image_id}:{target}:{len(expressions)}", form=tree.form,
                    tree=tree, image_id=image_id, target_id=target,
                    target_box=graph.node(target).box,
                ))
    return corpus, expressions


class TestScanPerTree:
    @settings(max_examples=60, deadline=None)
    @given(case=recurring_tree_cases(), per_type=st.integers(1, 3))
    def test_memo_agrees_with_a_scan_per_expression(self, case, per_type):
        corpus, expressions = case
        scans = {}
        for expr in expressions:
            alone = find_distractors(corpus, expr, per_type, LEXICON)
            assert find_distractors(corpus, expr, per_type, LEXICON, scans) == alone
            assert (missing_counts(corpus, expr, per_type, LEXICON, scans)
                    == missing_counts(corpus, expr, per_type, LEXICON))

    @settings(max_examples=60, deadline=None)
    @given(case=recurring_tree_cases(), per_type=st.integers(1, 3))
    def test_one_scan_per_distinct_tree_and_none_for_shortages(self, case, per_type):
        corpus, expressions = case
        calls = []
        scan = distractor._scan

        def counted(*args):
            calls.append(args[1].tree)
            return scan(*args)

        scans = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distractor, "_scan", counted)
            for expr in expressions:
                if find_distractors(corpus, expr, per_type, LEXICON, scans) is None:
                    before = len(calls)
                    missing_counts(corpus, expr, per_type, LEXICON, scans)
                    assert len(calls) == before
        assert len(calls) == len(set(calls)) == len({e.tree for e in expressions})

    def test_without_a_memo_the_target_image_is_skipped(self):
        # The tree does not match its target c1, which breaks the memo's
        # precondition; a call without a memo still never offers the target.
        graphs = dict(toy_corpus().graphs)
        graphs["c4"] = dataclasses.replace(graphs["c1"], image_id="c4")
        corpus = Corpus.build(graphs)
        expr = dataclasses.replace(chain_expression(), image_id="c1", target_id="o1")
        assert not match(expr.tree, corpus.graphs["c1"], LEXICON)
        instance = find_distractors(corpus, expr, 3, LEXICON)
        assert instance.distractors[DistractorType.CAT] == ("c2", "c3", "c4")
        # A memo filled by a sound expression of the same tree is not
        # keyed by target, so there c1 takes a slot.
        scans = {}
        find_distractors(corpus, chain_expression(), 3, LEXICON, scans)
        shared = find_distractors(corpus, expr, 3, LEXICON, scans)
        assert shared.distractors[DistractorType.CAT] == ("c1", "c2", "c3")


# Ids that JSON must escape, that are not ASCII, or that sort differently as
# text and as numbers ("10" < "9").
ids = st.one_of(
    st.text(max_size=6),
    st.integers(0, 120).map(str),
    st.sampled_from(['"', "\\", '\\"', "é", "日本", "\u2028", "\x00"]),
)
boxes = st.fixed_dictionaries({
    "x": st.one_of(st.integers(0, 900), st.floats(0, 900)),
    "y": st.one_of(st.integers(0, 900), st.floats(0, 900)),
    "w": st.one_of(st.integers(1, 900), st.floats(0.01, 900)),
    "h": st.one_of(st.integers(1, 900), st.floats(0.01, 900)),
})


@st.composite
def instances_sharing_images(draw):
    """Instances over one set of images, each image with one region list."""
    image_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    regions = {
        image_id: tuple(draw(st.lists(st.tuples(ids, boxes), max_size=4)))
        for image_id in image_ids
    }
    expr = chain_expression()
    drawn = []
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.sampled_from(image_ids))
        distractors = {
            dtype: tuple(draw(st.lists(st.sampled_from(image_ids), max_size=3)))
            for dtype in DistractorType
        }
        used = {target, *(i for chosen in distractors.values() for i in chosen)}
        drawn.append(TaskInstance(
            expression=dataclasses.replace(expr, image_id=target),
            target_image=target,
            distractors=distractors,
            candidate_regions={image_id: regions[image_id] for image_id in used},
        ))
    return drawn


class _CountingDict(dict):
    """A dict that counts how often each key is stored."""

    def __init__(self):
        super().__init__()
        self.stores = {}

    def __setitem__(self, key, value):
        self.stores[key] = self.stores.get(key, 0) + 1
        super().__setitem__(key, value)


class TestSerialization:
    @settings(max_examples=150, deadline=None)
    @given(drawn=instances_sharing_images())
    def test_assembled_line_equals_the_dumped_instance(self, drawn):
        region_json = _CountingDict()
        for instance in drawn:
            assert instance_line(instance, region_json) == json.dumps(instance.to_jsonable(), sort_keys=True)
        images = {image_id for instance in drawn for image_id in instance.candidate_regions}
        assert region_json.stores == dict.fromkeys(images, 1)

    def test_round_trip(self):
        corpus = toy_corpus()
        instance = find_distractors(corpus, chain_expression(), 3, LEXICON)
        payload = instance.to_jsonable()
        again = TaskInstance.from_jsonable(payload)
        assert again == instance
        assert again.to_jsonable() == payload


def _shuffled(value, rng):
    """``value`` with the keys of every object in a random order."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {key: _shuffled(item, rng) for key, item in items}
    if isinstance(value, list):
        return [_shuffled(item, rng) for item in value]
    return value


def _with_box_value(payload, rng, value):
    """``payload`` with one region box value set to ``value``; unchanged if it has no region."""
    regions = [region for regions in payload["candidate_regions"].values() for region in regions]
    if regions:
        box = rng.choice(regions)[1]
        box[rng.choice("xywh")] = value
    return payload


# A line fault edits the payload before it is dumped, a text fault the dumped line.
_NUMBER = "__number__"  # a string marking a number token to splice into the dumped line
LINE_FAULTS = {
    "bool-box-value": lambda payload, rng: _with_box_value(payload, rng, True),
    "float-for-int": lambda payload, rng: _with_box_value(payload, rng, 7.0),
    "nan": lambda payload, rng: _with_box_value(payload, rng, _NUMBER + "NaN"),
    "too-large": lambda payload, rng: _with_box_value(payload, rng, _NUMBER + "1e999"),
    "regions-not-an-object": lambda payload, rng: {**payload, "candidate_regions": []},
    "non-object": lambda payload, rng: rng.choice([5, [payload], "line", None]),
}
TEXT_FAULTS = {
    "truncated": lambda text, rng: text[:rng.randrange(len(text))],
    "trailing-data": lambda text, rng: text + rng.choice([" 1", "}", ",", " {}"]),
    "duplicate-regions-first": lambda text, rng: '{"candidate_regions": {"x": [["o", {"x": true}]]}, ' + text[1:],
    "duplicate-regions-last": lambda text, rng: text[:-1] + ', "candidate_regions": {}}',
}


@st.composite
def instance_files(draw):
    """Lines of drawn instances sharing images, each in its own JSON formatting, some faulty."""
    lines = []
    for instance in draw(instances_sharing_images()) * draw(st.integers(1, 3)):
        rng = draw(st.randoms(use_true_random=False))
        payload = _shuffled(json.loads(json.dumps(instance.to_jsonable())), rng)
        fault = draw(st.sampled_from([None, None, None, *LINE_FAULTS, *TEXT_FAULTS]))
        if fault in LINE_FAULTS:
            payload = LINE_FAULTS[fault](payload, rng)
        text = json.dumps(
            payload,
            indent=draw(st.sampled_from([None, 0, 1, "\t"])),
            separators=draw(st.sampled_from([None, (",", ":"), (" , ", " : ")])),
            ensure_ascii=draw(st.booleans()),
        )
        text = text.replace("\n", draw(st.sampled_from([" ", "\t", ""])))
        for token in ("NaN", "1e999"):
            text = text.replace(f'"{_NUMBER}{token}"', token)
        if fault in TEXT_FAULTS:
            text = TEXT_FAULTS[fault](text, rng)
        lines.append(text)
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _read(data: bytes, decode) -> tuple[list[str], str | None]:
    """Each instance read from ``data`` as sorted JSON, and the error that stopped the read."""
    read = []
    try:
        for instance in parse_jsonl(io.BytesIO(data), "f.jsonl", lambda instance: instance, decode):
            read.append(json.dumps(instance.to_jsonable(), sort_keys=True))
    except DataError as exc:
        return read, str(exc)
    return read, None


class TestInstanceReader:
    @settings(max_examples=300, deadline=None)
    @given(data=instance_files())
    def test_reads_what_the_one_rule_reads(self, data):
        reference = _read(data, lambda line: TaskInstance.from_jsonable(decode_json(line)))
        assert _read(data, InstanceReader()) == reference

    def test_decodes_and_checks_each_distinct_region_list_once(self, monkeypatch, instances):
        calls = []
        box_record = distractor.box_record

        def counting_box_record(box):
            calls.append(box)
            return box_record(box)

        monkeypatch.setattr(distractor, "box_record", counting_box_record)
        lines = [json.dumps(instance.to_jsonable(), sort_keys=True) for instance in instances] * 2
        reader = InstanceReader()
        read = [reader(line) for line in lines]
        assert [json.dumps(i.to_jsonable(), sort_keys=True) for i in read] == lines
        # The fixture's instances come from one corpus: one region list text per image.
        distinct = {
            image_id: regions for instance in instances for image_id, regions in instance.candidate_regions.items()
        }
        boxes_read = 2 * sum(len(regions) for instance in instances for regions in instance.candidate_regions.values())
        assert len(calls) == sum(len(regions) for regions in distinct.values()) < boxes_read
