"""Selection protocol: scorers, argmax tie-breaking, and accuracy reports."""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import textwrap
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from refsynth.distractor import DistractorType, TaskInstance
from refsynth.errors import DataError, EmptyInput, KeyMismatch, NoCandidates
from refsynth.evaluation import (
    ConstantScorer,
    FileScorer,
    HashRandomScorer,
    OracleScorer,
    Setting,
    SettingResult,
    SubprocessScorer,
    _argmax,
    _score_images,
    evaluate,
    format_report,
    length_bucket,
    score_key,
    setting_images,
)
from refsynth.reasoning import match
from refsynth.util import hash_uniform

from .oracles import brute_force_select

# Child scorer programs; each flushes after every answer.
HASH_CHILD = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        request = json.loads(line)
        for key in ("box", "expr_id", "image_id", "object_id", "text"):
            assert key in request, key
        value = (len(request["image_id"]) * 7 + len(request["object_id"])) % 13
        print(json.dumps({"score": value / 13}))
        sys.stdout.flush()
    """
)
# Answers two requests, then exits with the rest of the instance unread.
DYING_CHILD = textwrap.dedent(
    """
    import sys
    for _ in range(2):
        sys.stdin.readline()
        print('{"score": 0.5}')
        sys.stdout.flush()
    """
)
# Answers its first request with a string, then stops reading but stays alive.
NON_NUMBER_CHILD = textwrap.dedent(
    """
    import sys, time
    sys.stdin.readline()
    print('{"score": "high"}')
    sys.stdout.flush()
    time.sleep(60)
    """
)


def writer_threads():
    return [t for t in threading.enumerate() if t.name == "refsynth-scorer-writer"]


def run_bounded(fn, timeout=30.0):
    """Run fn in a thread; fail if it does not finish in time; return what it raised."""
    outcome = {}

    def body():
        try:
            fn()
        except BaseException as exc:  # handed to the test thread, which asserts on it
            outcome["error"] = exc

    runner = threading.Thread(target=body)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "scoring hung"
    return outcome.get("error")


class CountingScorer:
    """Counts requests per (expr_id, image_id, object_id); scores by hash."""

    def __init__(self):
        self.calls = Counter()

    def score(self, expression, image_id, object_id, box):
        self.calls[(expression.expr_id, image_id, object_id)] += 1
        return hash_uniform(3, expression.expr_id, image_id, object_id)


class TiedScorer:
    """Seeded scores rounded to quarters, so most instances hold ties."""

    def score(self, expression, image_id, object_id, box):
        return round(hash_uniform(9, expression.expr_id, image_id, object_id) * 4) / 4


class TestSettings:
    def test_image_subsets(self, instances):
        instance = instances[0]
        full = setting_images(instance, Setting.FULL)
        assert len(full) == 13
        assert full[0] == instance.target_image
        assert setting_images(instance, Setting.WITHOUT_DIST) == (instance.target_image,)
        only = setting_images(instance, Setting.CAT_ONLY)
        assert len(only) == 4
        assert only[1:] == instance.distractors[DistractorType.CAT]

    def test_length_buckets(self):
        assert length_bucket(9) == "short"
        assert length_bucket(10) == "middle"
        assert length_bucket(20) == "middle"
        assert length_bucket(21) == "long"


class TestOracleScorer:
    def test_perfect_accuracy_everywhere(self, corpus, lexicon, instances):
        report = evaluate(instances, OracleScorer(corpus, lexicon))
        assert report.instance_count == len(instances)
        for setting, result in report.settings.items():
            assert result.overall.accuracy == 1.0, setting
            assert result.overall.total == len(instances)
        for result in report.settings.values():
            for tally in result.per_form.values():
                assert tally.accuracy == 1.0


class TestTieBreaking:
    def test_constant_scores_pick_the_smallest_pair(self, instances):
        instance = instances[0]
        image_ids = setting_images(instance, Setting.FULL)
        chosen = _argmax(instance, image_ids, _score_images(instance, ConstantScorer(), image_ids))
        everything = [
            (image_id, object_id)
            for image_id in image_ids
            for object_id, _ in instance.candidate_regions[image_id]
        ]
        assert chosen == min(everything)

    def test_argmax_agrees_with_brute_force(self, instances):
        scorer = HashRandomScorer(seed=11)
        for instance in instances[:10]:
            for setting in (Setting.FULL, Setting.CAT_ONLY, Setting.WITHOUT_DIST):
                image_ids = setting_images(instance, setting)
                triples = [
                    (image_id, object_id,
                     scorer.score(instance.expression, image_id, object_id, b))
                    for image_id in image_ids
                    for object_id, b in instance.candidate_regions[image_id]
                ]
                scores = _score_images(instance, scorer, image_ids)
                assert _argmax(instance, image_ids, scores) == brute_force_select(triples)

    def test_no_candidates_raises(self, instances):
        bare = TaskInstance(
            expression=instances[0].expression,
            target_image=instances[0].target_image,
            distractors=instances[0].distractors,
            candidate_regions={k: () for k in instances[0].candidate_regions},
        )
        image_ids = setting_images(bare, Setting.FULL)
        scores = _score_images(bare, ConstantScorer(), image_ids)
        with pytest.raises(NoCandidates):
            _argmax(bare, image_ids, scores)


class TestHashRandomScorer:
    def test_reports_are_reproducible(self, instances):
        first = evaluate(instances, HashRandomScorer(seed=5))
        second = evaluate(instances, HashRandomScorer(seed=5))
        assert first.to_jsonable() == second.to_jsonable()

    def test_different_seeds_differ(self, instances):
        a = evaluate(instances, HashRandomScorer(seed=1)).to_jsonable()
        b = evaluate(instances, HashRandomScorer(seed=2)).to_jsonable()
        assert a != b

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(-5, 10**6),
        expr_id=st.text(max_size=8),
        regions=st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6)), max_size=6),
    )
    def test_a_batch_equals_one_score_per_region(self, instances, seed, expr_id, regions):
        # Ids may hold "|", the separator of the hashed key, and any character.
        expression = dataclasses.replace(instances[0].expression, expr_id=expr_id)
        scorer = HashRandomScorer(seed)
        batch = [(image_id, object_id, {}) for image_id, object_id in regions + [("a|b", "c"), ("a", "b|c")]]
        assert scorer.score_batch(expression, batch) == [scorer.score(expression, *region) for region in batch]


class TestFileScorer:
    def test_scores_come_from_the_table(self, instances):
        instance = instances[0]
        table = {}
        for image_id in setting_images(instance, Setting.FULL):
            for object_id, _ in instance.candidate_regions[image_id]:
                key = score_key(instance.expression.expr_id, image_id, object_id)
                table[key] = 1.0 if (image_id, object_id) == (
                    instance.target_image, instance.expression.target_id) else 0.0
        image_ids = setting_images(instance, Setting.FULL)
        scores = _score_images(instance, FileScorer(table), image_ids)
        assert _argmax(instance, image_ids, scores) == (instance.target_image, instance.expression.target_id)

    def test_missing_key_is_fatal(self, instances):
        with pytest.raises(KeyMismatch):
            _score_images(instances[0], FileScorer({}), setting_images(instances[0], Setting.FULL))

    def test_load_validates_numbers(self):
        with pytest.raises(DataError):
            FileScorer.load(io.StringIO(json.dumps({"a|b|c": "high"})))
        loaded = FileScorer.load(io.StringIO(json.dumps({"a|b|c": 0.25})))
        assert loaded.table == {"a|b|c": 0.25}


class TestSubprocessScorer:
    def test_line_json_protocol(self, instances):
        with SubprocessScorer([sys.executable, "-c", HASH_CHILD]) as scorer:
            report = evaluate(instances[:5], scorer, settings=(Setting.FULL,))
        assert report.settings[Setting.FULL].overall.total == 5

    def test_bad_response_raises(self, instances):
        child = "print('not json'); import sys; sys.stdout.flush(); sys.stdin.read()"
        with SubprocessScorer([sys.executable, "-c", child]) as scorer:
            with pytest.raises(DataError):
                evaluate(instances[:1], scorer, settings=(Setting.FULL,))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_a_non_standard_number_is_a_bad_response(self, instances, token):
        child = f"import sys\nfor line in sys.stdin:\n    print('{{\"score\": {token}}}', flush=True)\n"
        with SubprocessScorer([sys.executable, "-c", child]) as scorer:
            with pytest.raises(DataError, match="bad scorer response"):
                evaluate(instances[:1], scorer, settings=(Setting.FULL,))

    def test_requests_arrive_once_each_in_first_seen_order(self, instances, tmp_path):
        log = tmp_path / "requests.jsonl"
        child = HASH_CHILD.replace(
            "for line in sys.stdin:",
            f"log = open({str(log)!r}, 'w')\nfor line in sys.stdin:\n    log.write(line); log.flush()",
        )
        settings = (Setting.CAT_ONLY, Setting.WITHOUT_DIST, Setting.DIFF_CAT_ONLY)
        with SubprocessScorer([sys.executable, "-c", child]) as scorer:
            evaluate(instances[:3], scorer, settings=settings)
        seen = [json.loads(line) for line in log.read_text().splitlines()]
        expected = []
        for instance in instances[:3]:
            pool = dict.fromkeys(i for s in settings for i in setting_images(instance, s))
            for image_id in pool:
                for object_id, box in instance.candidate_regions[image_id]:
                    expected.append({
                        "box": box,
                        "expr_id": instance.expression.expr_id,
                        "image_id": image_id,
                        "object_id": object_id,
                        "text": instance.expression.text,
                    })
        assert seen == expected

    def test_report_equals_the_per_region_reference(self, instances):
        with SubprocessScorer([sys.executable, "-c", HASH_CHILD]) as scorer:
            piped = evaluate(instances[:8], scorer).to_jsonable()

        class PerRegion:
            def score(self, expression, image_id, object_id, box):
                return (len(image_id) * 7 + len(object_id)) % 13 / 13

        assert piped == evaluate(instances[:8], PerRegion()).to_jsonable()

    @pytest.mark.parametrize("child", [DYING_CHILD, NON_NUMBER_CHILD], ids=["dies", "non-number"])
    def test_failing_child_raises_without_hanging(self, instances, child):
        # Long texts make one instance's requests overfill the pipe, so the
        # writer is still blocked when the child stops reading.
        instance = instances[0]
        long = dataclasses.replace(instance, expression=dataclasses.replace(
            instance.expression, text="x" * 4000))
        before = len(writer_threads())
        with SubprocessScorer([sys.executable, "-c", child]) as scorer:
            error = run_bounded(lambda: evaluate([long], scorer, settings=(Setting.FULL,)))
        assert isinstance(error, DataError), error
        assert len(writer_threads()) == before


class TestEvaluate:
    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            evaluate([], ConstantScorer())

    def test_an_empty_iterator_is_rejected(self):
        with pytest.raises(EmptyInput):
            evaluate(iter([]), ConstantScorer())

    def test_an_iterator_gives_the_report_of_the_list(self, instances):
        streamed = evaluate(iter(instances), HashRandomScorer(seed=4)).to_jsonable()
        assert streamed == evaluate(instances, HashRandomScorer(seed=4)).to_jsonable()
        assert streamed["instance_count"] == len(instances)

    @pytest.mark.parametrize("settings", [
        tuple(Setting),
        (Setting.CAT_ONLY, Setting.DIFF_CAT_ONLY),
    ], ids=["all", "two"])
    def test_the_oracle_matches_each_scored_image_once(self, monkeypatch, corpus, lexicon, instances, settings):
        calls = Counter()

        def counted(tree, graph, lexicon=None):
            calls[(id(tree), graph.image_id)] += 1
            return match(tree, graph, lexicon)

        monkeypatch.setattr("refsynth.evaluation.match", counted)
        evaluate(instances, OracleScorer(corpus, lexicon), settings)
        expected = {
            (id(instance.expression.tree), image_id)
            for instance in instances
            for setting in settings
            for image_id in setting_images(instance, setting)
        }
        assert set(calls) == expected
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("settings", [
        tuple(Setting),
        (Setting.CAT_ONLY, Setting.DIFF_CAT_ONLY),
        (Setting.WITHOUT_DIST,),
    ], ids=["all", "two", "without-dist"])
    def test_each_region_is_scored_once(self, instances, settings):
        scorer = CountingScorer()
        evaluate(instances, scorer, settings)
        expected = {
            (instance.expression.expr_id, image_id, object_id)
            for instance in instances
            for setting in settings
            for image_id in setting_images(instance, setting)
            for object_id, _ in instance.candidate_regions[image_id]
        }
        assert set(scorer.calls) == expected
        assert set(scorer.calls.values()) == {1}

    def test_equals_the_per_setting_reference_under_ties(self, instances):
        scorer = TiedScorer()
        expected = {setting: SettingResult() for setting in Setting}
        ties = 0
        for instance in instances:
            expr = instance.expression
            for setting in Setting:
                image_ids = setting_images(instance, setting)
                triples = [
                    (image_id, object_id, scorer.score(expr, image_id, object_id, box))
                    for image_id in image_ids
                    for object_id, box in instance.candidate_regions[image_id]
                ]
                top = max(value for _, _, value in triples)
                ties += sum(value == top for _, _, value in triples) > 1
                chosen = brute_force_select(triples)
                assert _argmax(instance, image_ids, _score_images(instance, scorer, image_ids)) == chosen
                expected[setting].record(
                    expr.form.value, length_bucket(expr.word_count),
                    chosen == (instance.target_image, expr.target_id))
        assert ties > len(instances)
        report = evaluate(instances, scorer)
        assert report.to_jsonable()["settings"] == {
            s.value: r.to_jsonable() for s, r in expected.items()}

    def test_without_dist_scores_only_the_target_image(self, instances):
        table = {
            score_key(instance.expression.expr_id, instance.target_image, object_id): 0.0
            for instance in instances
            for object_id, _ in instance.candidate_regions[instance.target_image]
        }
        report = evaluate(instances, FileScorer(table), settings=(Setting.WITHOUT_DIST,))
        assert report.settings[Setting.WITHOUT_DIST].overall.total == len(instances)

    def test_a_repeated_setting_counts_once(self, instances):
        scorer = HashRandomScorer(seed=3)
        repeated = evaluate(instances, scorer, (Setting.FULL, Setting.FULL, Setting.WITHOUT_DIST))
        once = evaluate(instances, scorer, (Setting.FULL, Setting.WITHOUT_DIST))
        assert list(repeated.settings) == [Setting.FULL, Setting.WITHOUT_DIST]
        assert repeated.to_jsonable() == once.to_jsonable()

    def test_a_batch_of_the_wrong_length_is_rejected(self, instances):
        class ShortBatch:
            def score_batch(self, expression, regions):
                return [0.0] * (len(regions) - 1)

        with pytest.raises(DataError):
            evaluate(instances[:1], ShortBatch())

    def test_slices_partition_the_totals(self, corpus, lexicon, instances):
        report = evaluate(instances, OracleScorer(corpus, lexicon), settings=(Setting.FULL,))
        result = report.settings[Setting.FULL]
        assert sum(t.total for t in result.per_form.values()) == len(instances)
        assert sum(t.total for t in result.per_length.values()) == len(instances)

    def test_report_renders_one_row_per_setting(self, corpus, lexicon, instances):
        report = evaluate(instances[:3], OracleScorer(corpus, lexicon))
        text = format_report(report)
        for setting in Setting:
            assert setting.value in text
