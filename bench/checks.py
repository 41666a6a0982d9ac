"""Output checks of the pipeline benchmark.

Each check reads one stage's output and raises :class:`CheckFailed` when it
is wrong.  The checks are written against the corpus, the stage's input and
the independent matcher in ``tests/oracles.py``; none of them reuses the
code path that produced the output.  They run outside the timed intervals.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter

from refsynth.distractor import DistractorType, TaskInstance
from refsynth.errors import RefsynthError
from refsynth.evaluation import HashRandomScorer, Setting, evaluate
from refsynth.expression import ExpressionRecord
from tests.oracles import brute_force_match, chance_hit_probability

# Records per output whose trees are re-matched by the independent matcher.
SAMPLE_SIZE = 200
# The normal approximation behind the chance check needs this many expected hits.
CHANCE_MIN_EXPECTED_HITS = 5.0


class CheckFailed(Exception):
    """A stage's output is wrong."""


def read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


def parse_canonical(line: str, where: str) -> dict:
    """One JSONL record, which must be in the writer's canonical form."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{where}: not JSON ({exc})") from exc
    if not isinstance(payload, dict) or json.dumps(payload, sort_keys=True) != line:
        raise CheckFailed(f"{where}: not in canonical form")
    return payload


def corpus_regions(corpus, image_id: str) -> list:
    return [[node.id, node.box.to_jsonable()] for node in corpus.graphs[image_id].nodes]


def check_expressions(path: str, corpus, lexicon, summary: dict, seed: int) -> dict[str, dict]:
    """Expressions point at real targets, and a sample matches only its target.

    Returns the payloads keyed by expression id, for the distract check.
    """
    payloads: dict[str, dict] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        payload = parse_canonical(line, f"{path}:{lineno}")
        try:
            record = ExpressionRecord.from_jsonable(payload)
        except (RefsynthError, KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckFailed(f"{path}:{lineno}: {exc}") from exc
        graph = corpus.graphs.get(record.image_id)
        if graph is None or record.target_id not in graph.node_by_id:
            raise CheckFailed(f"{path}:{lineno}: target {record.image_id}/{record.target_id} not in corpus")
        if payload["target_box"] != graph.node(record.target_id).box.to_jsonable():
            raise CheckFailed(f"{path}:{lineno}: target box differs from the corpus")
        if record.expr_id in payloads:
            raise CheckFailed(f"{path}:{lineno}: duplicate expression id {record.expr_id}")
        payloads[record.expr_id] = payload
    if len(payloads) != summary.get("expressions"):
        raise CheckFailed(f"{path}: {len(payloads)} records, summary says {summary.get('expressions')}")
    sample = random.Random(seed).sample(sorted(payloads), min(SAMPLE_SIZE, len(payloads)))
    for expr_id in sample:
        record = ExpressionRecord.from_jsonable(payloads[expr_id])
        hits = brute_force_match(record.tree, corpus.graphs[record.image_id], lexicon)
        if hits != {record.target_id}:
            raise CheckFailed(f"{expr_id}: tree matches {sorted(hits)} in its own image")
    return payloads


def check_instances(path: str, corpus, lexicon, expressions: dict[str, dict], summary: dict,
                    per_type: int, seed: int) -> list[str]:
    """Every instance is built from its input expression and the corpus.

    A seeded sample is re-matched: the tree hits only the target in its own
    image and nothing on any distractor image.  Returns the lines.
    """
    lines = read_lines(path)
    if len(lines) != summary.get("instances"):
        raise CheckFailed(f"{path}: {len(lines)} instances, summary says {summary.get('instances')}")
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        payload = parse_canonical(line, where)
        expression = payload.get("expression")
        expr_id = expression.get("expr_id") if isinstance(expression, dict) else None
        if expr_id not in expressions or expression != expressions[expr_id] or expr_id in seen:
            raise CheckFailed(f"{where}: expression is not one of the input records")
        seen.add(expr_id)
        target = expression["image_id"]
        distractors = payload.get("distractors")
        if payload.get("target_image") != target or not isinstance(distractors, dict):
            raise CheckFailed(f"{where}: bad target image or distractor map")
        if sorted(distractors) != sorted(t.value for t in DistractorType):
            raise CheckFailed(f"{where}: distractor types {sorted(distractors)}")
        images = [target] + [i for t in DistractorType for i in distractors[t.value]]
        if any(len(distractors[t.value]) != per_type for t in DistractorType) or len(set(images)) != len(images):
            raise CheckFailed(f"{where}: distractor lists are not {per_type} distinct images per type")
        regions = payload.get("candidate_regions")
        if not isinstance(regions, dict) or sorted(regions) != sorted(images):
            raise CheckFailed(f"{where}: candidate images differ from the instance images")
        for image_id in images:
            if image_id not in corpus.graphs or regions[image_id] != corpus_regions(corpus, image_id):
                raise CheckFailed(f"{where}: candidate regions of {image_id} differ from the corpus")
    for line in random.Random(seed).sample(lines, min(SAMPLE_SIZE, len(lines))):
        instance = TaskInstance.from_jsonable(json.loads(line))
        tree = instance.expression.tree
        if brute_force_match(tree, corpus.graphs[instance.target_image], lexicon) != {instance.expression.target_id}:
            raise CheckFailed(f"{instance.expression.expr_id}: tree is ambiguous in its own image")
        for image_id in instance.images[1:]:
            if brute_force_match(tree, corpus.graphs[image_id], lexicon):
                raise CheckFailed(f"{instance.expression.expr_id}: distractor {image_id} matches the tree")
    return lines


def check_split(out_dir: str, instance_lines: list[str]) -> None:
    """Parts are image-disjoint and hold exactly the input instances."""
    parts = {name: read_lines(os.path.join(out_dir, f"{name}.jsonl")) for name in ("train", "val", "test")}
    if Counter(line for lines in parts.values() for line in lines) != Counter(instance_lines):
        raise CheckFailed(f"{out_dir}: parts do not hold exactly the input instances")
    owner: dict[str, str] = {}
    for name, lines in parts.items():
        for line in lines:
            image_id = json.loads(line)["target_image"]
            if owner.setdefault(image_id, name) != name:
                raise CheckFailed(f"{out_dir}: image {image_id} is in {owner[image_id]} and {name}")


def full_candidates(instance: TaskInstance) -> int:
    return sum(len(instance.candidate_regions[i]) for i in instance.images)


def check_stats(stats: dict, corpus, expression_count: int, instances: list[TaskInstance]) -> None:
    expected = {
        "image_count": len(corpus.graphs),
        "region_count": sum(len(g.nodes) for g in corpus.graphs.values()),
        "expression_count": expression_count,
        "avg_candidates": sum(full_candidates(i) for i in instances) / len(instances),
    }
    for key, value in expected.items():
        if stats.get(key) != value:
            raise CheckFailed(f"stats {key} is {stats.get(key)!r}, expected {value!r}")


def _totals_ok(report: dict, count: int) -> None:
    if report.get("instance_count") != count:
        raise CheckFailed(f"report covers {report.get('instance_count')} instances, expected {count}")
    settings = report.get("settings", {})
    if sorted(settings) != sorted(s.value for s in Setting):
        raise CheckFailed(f"report settings {sorted(settings)}")
    for name, result in settings.items():
        if result["overall"]["total"] != count:
            raise CheckFailed(f"setting {name} scored {result['overall']['total']} of {count}")


def check_oracle_report(report: dict, count: int) -> None:
    _totals_ok(report, count)
    for name, result in report["settings"].items():
        if result["overall"]["accuracy"] != 1.0:
            raise CheckFailed(f"oracle accuracy in {name} is {result['overall']['accuracy']}")


def check_hash_report(report: dict, instances: list[TaskInstance]) -> None:
    """Full accuracy of the random scorer sits within 3 sigma of analytic chance."""
    _totals_ok(report, len(instances))
    probabilities = [chance_hit_probability(i, i.images) for i in instances]
    expected = sum(probabilities)
    if expected < CHANCE_MIN_EXPECTED_HITS:
        return
    sigma = math.sqrt(sum(p * (1.0 - p) for p in probabilities))
    correct = report["settings"][Setting.FULL.value]["overall"]["correct"]
    if abs(correct - expected) > 3.0 * sigma:
        raise CheckFailed(f"hash-random Full hits {correct}, chance is {expected:.1f} +- {sigma:.1f}")


def check_subprocess_report(report: dict, instances: list[TaskInstance]) -> None:
    """The child scorer's report equals the in-process hash-random report."""
    expected = json.loads(json.dumps(evaluate(instances, HashRandomScorer(0)).to_jsonable()))
    if report != expected:
        raise CheckFailed("subprocess report differs from the hash-random report")
