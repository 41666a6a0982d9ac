"""Acceptance gate: one test per shipped guarantee.

Every test covers one external promise the package makes, checks it at the
documented tolerance, enforces the documented runtime budget, and prints a
single verdict line.  Verdict lines are written to the real stdout so they
survive pytest's capture and appear once per criterion in any run log.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from refsynth.balance import is_spatial_only, relation_weights
from refsynth.cli import main as cli_main
from refsynth.distractor import DistractorType, missing_counts, type_predicate
from refsynth.evaluation import HashRandomScorer, Setting, evaluate, setting_images
from refsynth.expression import (
    default_templates,
    fill,
    generate,
    render_text,
    template_is_eligible,
)
from refsynth.mining import (
    ModularEmbedding,
    build_sampling_table,
    mine_loss,
    rank_loss,
)
from refsynth.reasoning import (
    LogicForm,
    OrderSpec,
    ReasoningTree,
    TreeEdge,
    TreeNode,
    match,
    validate_tree,
)
from refsynth.scene_graph import Corpus, SynonymTable, target_exclusion_reason
from refsynth.synthgen import make_embeddings
from refsynth.util import derive_rng

from .conftest import CORPUS_PATH, PIPELINE_SEED, TARGET_RULE, box, build_graph
from .oracles import (
    brute_force_match,
    chance_hit_probability,
    literal_mine_loss,
    literal_rank_loss,
)


@pytest.fixture
def criterion(request):
    """Context manager factory: time a criterion body, print one verdict line.

    The line is emitted with capture suspended so it lands on the terminal
    once per criterion no matter how pytest was invoked.
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line: str) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    @contextmanager
    def run(name: str, budget_seconds: float):
        started = time.perf_counter()
        try:
            yield
        except BaseException:
            emit(f"[FAIL] {name} ({time.perf_counter() - started:.2f}s)")
            raise
        elapsed = time.perf_counter() - started
        verdict = "PASS" if elapsed <= budget_seconds else "FAIL"
        emit(f"[{verdict}] {name} ({elapsed:.2f}s, budget {budget_seconds:g}s)")
        assert elapsed <= budget_seconds, (
            f"{name} finished correct but took {elapsed:.2f}s against a "
            f"{budget_seconds:g}s budget"
        )

    return run


def _template(form: LogicForm, pattern: str):
    return next(t for t in default_templates() if t.form is form and t.pattern == pattern)


EXEMPLARS = (
    (
        "The <att0> <obj0> that is <rel0> the <att1> <obj1> that is <rel1> the <att2> <obj2>.",
        ReasoningTree(
            form=LogicForm.CHAIN,
            root=TreeNode("girl", ("young",)),
            edges=(TreeEdge.relation("touching", TreeNode("donut", ("glazed",))),),
            chain_extension=TreeEdge.relation("on", TreeNode("table", ("round",))),
        ),
        "The young girl that is touching the glazed donut that is on the round table.",
    ),
    (
        "The <att0> <obj0> <rel0> the <att1> <obj1> and <rel1> the <att2> <obj2>.",
        ReasoningTree(
            form=LogicForm.AND,
            root=TreeNode("fence", ("white",)),
            edges=(
                TreeEdge.relation("near", TreeNode("building")),
                TreeEdge.relation("behind", TreeNode("woman", ("walking",))),
            ),
            junction="and",
        ),
        "The white fence near the building and behind the walking woman.",
    ),
    (
        "The <att0> <obj0> <rel0> the <att1> <obj1> or <rel1> the <att2> <obj2>.",
        ReasoningTree(
            form=LogicForm.OR,
            root=TreeNode("suitcase", ("green",)),
            edges=(
                TreeEdge.relation("behind", TreeNode("suitcase", ("black",))),
                TreeEdge.relation("near", TreeNode("suitcase", ("yellow",))),
            ),
            junction="or",
        ),
        "The green suitcase behind the black suitcase or near the yellow suitcase.",
    ),
    (
        "The <idx> <obj0> from the <dir> that is <att0:and>.",
        ReasoningTree(
            form=LogicForm.ORDER,
            root=TreeNode("glass", ("red",), order_spec=OrderSpec(1, "left")),
        ),
        "The first glass from the left that is red.",
    ),
    (
        "The <obj0> that has the same <cat> as the <obj1>.",
        ReasoningTree(
            form=LogicForm.SAME,
            root=TreeNode("bag"),
            edges=(TreeEdge.same("colour", TreeNode("sweater")),),
        ),
        "The bag that has the same color as the sweater.",
    ),
    (
        "The <obj0> that is not <natt0:and>.",
        ReasoningTree(
            form=LogicForm.NOT,
            root=TreeNode("apple", negated_attributes=("red",)),
        ),
        "The apple that is not red.",
    ),
    (
        "The <obj0> on the <dir> that is <att0:and> and <rel0> the <att1> <obj1>.",
        ReasoningTree(
            form=LogicForm.ORDER,
            root=TreeNode("cat", ("sleeping",), order_spec=OrderSpec(1, "left")),
            edges=(TreeEdge.relation("resting on", TreeNode("towel", ("white",))),),
        ),
        "The cat on the left that is sleeping and resting on the white towel.",
    ),
)


def test_template_fidelity_is_byte_exact(criterion):
    """Seven canonical tree/template pairs must render to the exact strings."""
    with criterion("template-fidelity", budget_seconds=1.0):
        for pattern, tree, expected in EXEMPLARS:
            validate_tree(tree)
            template = _template(tree.form, pattern)
            assert template_is_eligible(template, tree)
            record = fill(template, tree, SynonymTable.empty(), random.Random(0))
            assert record.text == expected
            assert render_text(record.tokens) == record.text


def test_generated_expressions_are_sound(criterion, corpus, expressions, lexicon):
    """Every generated tree matches exactly its target, by both matchers."""
    with criterion("generation-soundness", budget_seconds=10.0):
        assert len(expressions) >= 200, "the bundled corpus must yield a real load"
        assert {r.form for r in expressions} == set(LogicForm)
        for record in expressions:
            graph = corpus.graphs[record.image_id]
            want = {record.target_id}
            assert match(record.tree, graph, lexicon) == want, record.expr_id
            assert brute_force_match(record.tree, graph, lexicon) == want, record.expr_id


def test_distractor_sets_are_sound(criterion, corpus, expressions, instances, lexicon):
    """Full distractor sets verify independently; shortages are accounted for."""
    with criterion("distractor-soundness", budget_seconds=30.0):
        assert len(instances) >= 25
        for instance in instances:
            expr = instance.expression
            seen: set[str] = set()
            for dtype in DistractorType:
                ids = instance.distractors[dtype]
                assert len(ids) == 3, expr.expr_id
                seen.update(ids)
                for image_id in ids:
                    graph = corpus.graphs[image_id]
                    assert type_predicate(dtype, graph, expr, lexicon)
                    assert match(expr.tree, graph, lexicon) == set()
                    assert brute_force_match(expr.tree, graph, lexicon) == set()
            assert len(seen) == 12, expr.expr_id
            assert instance.target_image not in seen
            assert instance.images[0] == instance.target_image
        kept = {i.expression.expr_id for i in instances}
        discarded = [r for r in expressions if r.expr_id not in kept]
        assert len(kept) + len(discarded) == len(expressions)
        for record in discarded:
            shortage = missing_counts(corpus, record, 3, lexicon)
            assert sum(shortage.values()) > 0, record.expr_id


def test_random_scorer_matches_analytic_chance(criterion, instances):
    """A uniform scorer lands within 3 sigma of mean 1/candidates per setting."""
    with criterion("chance-baseline", budget_seconds=60.0):
        seeds = 250
        trials = seeds * len(instances)
        assert trials >= 10_000
        analytic: dict[Setting, float] = {}
        variance: dict[Setting, float] = {}
        for setting in Setting:
            probs = [
                chance_hit_probability(inst, setting_images(inst, setting))
                for inst in instances
            ]
            analytic[setting] = sum(probs) / len(probs)
            variance[setting] = seeds * sum(p * (1.0 - p) for p in probs)
        correct = {setting: 0 for setting in Setting}
        for seed in range(seeds):
            report = evaluate(instances, HashRandomScorer(seed))
            for setting, result in report.settings.items():
                correct[setting] += result.overall.correct
        observed = {s: correct[s] / trials for s in Setting}
        for setting in Setting:
            sigma = math.sqrt(variance[setting]) / trials
            gap = abs(observed[setting] - analytic[setting])
            assert gap <= 3.0 * sigma, (
                f"{setting.value}: observed {observed[setting]:.5f}, "
                f"analytic {analytic[setting]:.5f}, 3 sigma {3 * sigma:.5f}"
            )
        for setting in (
            Setting.DIFF_CAT_ONLY,
            Setting.CAT_ONLY,
            Setting.CAT_ATTR_ONLY,
            Setting.CAT_CAT_ONLY,
        ):
            assert observed[Setting.FULL] < observed[setting]
            assert observed[setting] < observed[Setting.WITHOUT_DIST]


def test_sampler_rows_are_proper_distributions(criterion):
    """Sampling rows are softmax distributions and draws follow them."""
    with criterion("sampler-softmax", budget_seconds=10.0):
        vectors = {"r0": (1.0, 0.0), "r1": (0.6, 0.8), "r2": (2.0, 0.0)}
        modules = ("subject", "location", "relation")
        trio = [
            ModularEmbedding(
                region_id=rid,
                category="cup",
                modules={m: np.array(vec) for m in modules},
            )
            for rid, vec in vectors.items()
        ]
        table = build_sampling_table(trio)
        row = table.blocks[("cup", "subject")].rows[0]
        assert abs(row[0]) == 0.0
        assert abs(row[1] - 0.401312339887548) < 1e-6
        assert abs(row[2] - 0.598687660112452) < 1e-6

        for block in table.blocks.values():
            sums = block.rows.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-9

        bulk = build_sampling_table(make_embeddings(3, 200, dim=8, category_count=5))
        for block in bulk.blocks.values():
            if block.rows.shape[0] < 2:
                continue
            sums = block.rows.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-9
            assert np.max(np.abs(np.diag(block.rows))) == 0.0

        draws = 100_000
        rng = random.Random(1234)
        counts = {"r1": 0, "r2": 0}
        for _ in range(draws):
            counts[table.sample(rng, "r0", "subject")] += 1
        for peer, p in (("r1", row[1]), ("r2", row[2])):
            sigma = math.sqrt(p * (1.0 - p) / draws)
            assert abs(counts[peer] / draws - p) <= 3.0 * sigma


def test_loss_identities_hold(criterion):
    """Hinge identities and 1000-case agreement with the literal evaluator."""
    with criterion("loss-identities", budget_seconds=1.0):
        margin = 0.1
        modules = ("subject", "location", "relation")
        flat = {m: 0.5 for m in modules}
        assert rank_loss(0.5, 0.5, 0.5, margin) == pytest.approx(2 * margin, abs=1e-12)
        assert mine_loss(0.5, flat, flat, margin) == pytest.approx(6 * margin, abs=1e-12)
        assert rank_loss(0.9, 0.1, 0.1, margin) == 0.0
        low = {m: 0.1 for m in modules}
        assert mine_loss(0.9, low, low, margin) == 0.0

        rng = random.Random(5)
        for _ in range(1000):
            m = rng.uniform(0.0, 0.5)
            pos = rng.uniform(-1.0, 1.0)
            neg_r = rng.uniform(-1.0, 1.0)
            neg_e = rng.uniform(-1.0, 1.0)
            assert abs(
                rank_loss(pos, neg_r, neg_e, m) - literal_rank_loss(pos, neg_r, neg_e, m)
            ) <= 1e-12
            regions = {name: rng.uniform(-1.0, 1.0) for name in modules}
            exprs = {name: rng.uniform(-1.0, 1.0) for name in modules}
            assert abs(
                mine_loss(pos, regions, exprs, m) - literal_mine_loss(pos, regions, exprs, m)
            ) <= 1e-12


def test_inverse_frequency_balancing_and_spatial_filter(
    criterion, corpus, expressions, generation_config
):
    """Rare predicates dominate sampling; spatial-only expressions are dropped."""
    with criterion("balancing", budget_seconds=10.0):
        objects = {
            f"n{i:03d}": ("block", (), box(x=i * 100, y=10, w=80, h=80))
            for i in range(111)
        }
        edges = [(f"n{i:03d}", "near", f"n{i + 1:03d}") for i in range(100)]
        edges += [(f"n{i:03d}", "holding", f"n{i + 1:03d}") for i in range(100, 110)]
        graph = build_graph("w0", objects, edges, width=12000, height=200)
        weights = relation_weights(Corpus.build({"w0": graph}))
        assert weights.frequencies == {"near": 100, "holding": 10}
        assert abs(weights.weights["near"] - 1.0 / 11.0) < 1e-12
        assert abs(weights.weights["holding"] - 10.0 / 11.0) < 1e-12

        draws = 100_000
        rng = random.Random(99)
        hits = sum(
            weights.sample(rng, ("near", "holding")) == "near" for _ in range(draws)
        )
        p = 1.0 / 11.0
        sigma = math.sqrt(p * (1.0 - p) / draws)
        assert abs(hits / draws - p) <= 3.0 * sigma

        raw = []
        for image_id, g in corpus.graphs.items():
            for node in g.nodes:
                if target_exclusion_reason(g, node, *TARGET_RULE) is None:
                    stream = derive_rng(PIPELINE_SEED, image_id, node.id)
                    raw.extend(r.tree for r in generate(g, node.id, generation_config, stream))
        spatial_raw = [t for t in raw if is_spatial_only(t)]
        assert spatial_raw, "the raw stream should contain spatial-only expressions"
        assert len(raw) - len(spatial_raw) == len(expressions)
        assert not any(is_spatial_only(r.tree) for r in expressions)


def test_pipeline_is_deterministic(criterion, tmp_path):
    """Same seed, same bytes: across reruns and across worker counts."""
    with criterion("determinism", budget_seconds=60.0):
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("a", "b", "c")}
        for name, workers in (("a", None), ("b", None), ("c", 2)):
            argv = [
                "generate", "--corpus", CORPUS_PATH,
                "--out", str(paths[name]), "--seed", str(PIPELINE_SEED),
            ]
            if workers:
                argv += ["--workers", str(workers)]
            assert cli_main(argv) == 0
        assert paths["a"].read_bytes() == paths["b"].read_bytes()
        assert paths["a"].read_bytes() == paths["c"].read_bytes()

        first = tmp_path / "instances_a.jsonl"
        second = tmp_path / "instances_b.jsonl"
        for out in (first, second):
            assert cli_main([
                "distract", "--corpus", CORPUS_PATH,
                "--expressions", str(paths["a"]), "--out", str(out),
            ]) == 0
        assert first.read_bytes() == second.read_bytes()

        for run in ("s1", "s2"):
            assert cli_main([
                "split", "--instances", str(first),
                "--out-dir", str(tmp_path / run), "--seed", str(PIPELINE_SEED),
            ]) == 0
        for part in ("train", "val", "test"):
            assert (tmp_path / "s1" / f"{part}.jsonl").read_bytes() == (
                tmp_path / "s2" / f"{part}.jsonl"
            ).read_bytes()


def test_sampling_table_builds_at_bulk_scale(criterion):
    """Rebuilding the sampler over 100k regions stays inside one minute."""
    with criterion("mining-throughput", budget_seconds=60.0):
        embeddings = make_embeddings(0, count=100_000, dim=64, category_count=600)
        table = build_sampling_table(embeddings)
        assert len(table.index) == 100_000
        categories = {e.category for e in embeddings}
        assert len(table.blocks) == 3 * len(categories)
        worst = 0.0
        for block in table.blocks.values():
            if block.rows.shape[0] < 2:
                continue
            sums = block.rows.sum(axis=1)
            worst = max(worst, float(np.max(np.abs(sums - 1.0))))
        assert worst < 1e-9
