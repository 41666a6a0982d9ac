"""Command-line behavior: stage chaining, exit codes, and summaries."""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import json
import logging
import math
import multiprocessing
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import types

import pytest

import refsynth
from refsynth import cli
from refsynth.cli import main
from refsynth.config import PipelineConfig
from refsynth.distractor import TaskInstance
from refsynth.errors import SchemaViolation
from refsynth.scene_graph import load_corpus_path

from .conftest import BAD_BOX_EDITS, CORPUS_PATH, PIPELINE_SEED

# sha256 of the generate and distract outputs on the fixture corpus at
# PIPELINE_SEED, so that no refactor of either stage changes a byte unseen.
EXPRESSIONS_SHA256 = "bd4a9950fbd9b6d98f2cc637fba0424039206275aa6cf4fb2a98cbedd9b4d986"
INSTANCES_SHA256 = "b3c941f1556d5fc3bc9ed8773cb1a259217e8c250e76ca54465f358ef5788b8b"
# sha256 of json.dumps(discard_details, sort_keys=True) from distract's --log:
# the shortage counts of the 199 of 242 expressions that find no full set.
DISCARDS_SHA256 = "bfddbaceb076978f040ac3c5bd5a516deb666bdb9398a27bd842167b2d51881c"
# sha256 of the stages that read those instances, on the same pipeline: the
# split parts at PIPELINE_SEED, stats --json over the corpus, expressions and
# instances, and eval --json with the hash-random scorer at PIPELINE_SEED and
# with the oracle.
SPLIT_SHA256 = {
    "train": "653c52150e619f97d044eafea32d977d8f37640975b7f3187bd71cf5cd75f826",
    "val": "bd23f054b36851c3420aaf1b1c2f19b065a669fe6cad2d501ec5510db8884987",
    "test": "57329ca985b98068deb6e4821233fa6c591bf7eb99394f3f78f45be0800c612b",
}
STATS_SHA256 = "b6e1128b954c5d5281f1242b3423760094ba8e134dccd4f01a61a13be6c8609b"
EVAL_HASH_RANDOM_SHA256 = "872d5c1a2da9adf31f23817c2604552e2a63c8518141f0fb1cf351a99cb4856d"
EVAL_ORACLE_SHA256 = "a82c1456f578b665b83a50b4ab4ee4ad682ccdfda077ecb9cf604f86cc4ae948"
# sha256 of what mine-demo prints, on the fixture corpus and on synthetic
# embeddings, and of 2,000 seeded sample_negatives draws on a table that mixes
# small categories with one large one (see mixed_size_draws_sha256), so that no
# change to the sampler moves a draw unseen.
MINE_DEMO_CORPUS_SHA256 = "d73111b2dfc30d0611b3053c3028daeea6e010bdb196c9b2e6f5439cea87f5bd"
MINE_DEMO_SYNTHETIC_SHA256 = "d856fb9704185e361f83e6464d639df140edf63b96f9c283bd4714999a98b51d"
DRAWS_SHA256 = "be472120b93f15470c413a5cfb6e94260fcd1cdc77af945f8d8823a7dfeba0b2"


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run generate and distract once; later tests reuse the outputs."""
    root = tmp_path_factory.mktemp("cli")
    assert main([
        "generate", "--corpus", CORPUS_PATH, "--out", str(root / "expressions.jsonl"),
        "--seed", "0", "--log", str(root / "generate.log.json"),
    ]) == 0
    assert main([
        "distract", "--corpus", CORPUS_PATH,
        "--expressions", str(root / "expressions.jsonl"),
        "--out", str(root / "instances.jsonl"),
        "--log", str(root / "distract.log.json"),
    ]) == 0
    return root


def read_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stdout_sha256(capsys, argv):
    """sha256 of what a successful run of ``argv`` prints."""
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


class TestGenerate:
    def test_outputs_and_log(self, pipeline_dir):
        records = read_lines(pipeline_dir / "expressions.jsonl")
        assert len(records) > 100
        with open(pipeline_dir / "generate.log.json", encoding="utf-8") as handle:
            log = json.load(handle)
        assert log["expressions"] == len(records)
        assert log["images"] == 20
        assert log["spatial_only_dropped"] > 0
        assert set(log["excluded_targets"]) == {"area", "blacklist"}

    def test_second_run_is_byte_identical(self, pipeline_dir, tmp_path):
        again = tmp_path / "expressions.jsonl"
        assert main([
            "generate", "--corpus", CORPUS_PATH, "--out", str(again), "--seed", "0",
        ]) == 0
        assert again.read_bytes() == (pipeline_dir / "expressions.jsonl").read_bytes()

    def test_output_bytes_are_pinned(self, pipeline_dir):
        assert sha256(pipeline_dir / "expressions.jsonl") == EXPRESSIONS_SHA256

    def test_two_workers_give_the_pinned_bytes(self, tmp_path):
        out = tmp_path / "expressions.jsonl"
        assert main([
            "generate", "--corpus", CORPUS_PATH, "--out", str(out),
            "--seed", str(PIPELINE_SEED), "--workers", "2",
        ]) == 0
        assert sha256(out) == EXPRESSIONS_SHA256

    def test_different_seed_changes_the_output(self, pipeline_dir, tmp_path):
        other = tmp_path / "expressions.jsonl"
        assert main([
            "generate", "--corpus", CORPUS_PATH, "--out", str(other), "--seed", "1",
        ]) == 0
        assert other.read_bytes() != (pipeline_dir / "expressions.jsonl").read_bytes()


class CollectedFuture(concurrent.futures.Future):
    """A future that tells its pool when its result is collected."""

    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.outstanding -= 1
        return super().result(timeout)


class InlinePool:
    """A stand-in for ``ProcessPoolExecutor`` that runs each task in this process when it is submitted.

    ``record`` collects the pool sizes asked for and the most tasks ever
    submitted but not yet collected through ``result()``.
    """

    def __init__(self, record, max_workers, initializer, initargs):
        record.sizes.append(max_workers)
        self.record = record
        self.outstanding = 0
        initializer(*initargs)

    def submit(self, fn, *args):
        future = CollectedFuture(self)
        future.set_result(fn(*args))
        self.outstanding += 1
        self.record.most_outstanding = max(self.record.most_outstanding, self.outstanding)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestGeneratePool:
    """``generate --workers``: the same bytes and summary at any worker count."""

    FIXTURE_RUNS = math.ceil(20 / cli.RUN_IMAGES)  # the fixture corpus has 20 images

    @staticmethod
    def _allow_cpus(monkeypatch, count):
        """Make this process see ``count`` CPUs that it may run on."""
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    def _generate(self, capsys, out, *extra):
        capsys.readouterr()
        code = main(["generate", "--corpus", CORPUS_PATH, "--out", str(out), "--seed", str(PIPELINE_SEED), *extra])
        return code, capsys.readouterr().out

    @pytest.fixture
    def inline_pool(self, monkeypatch):
        def no_process(self):
            raise AssertionError("a process was started")

        record = types.SimpleNamespace(sizes=[], most_outstanding=0)
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", functools.partial(InlinePool, record))
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        monkeypatch.setattr(cli, "_job", None)
        self._allow_cpus(monkeypatch, 64)
        return record

    def test_every_worker_count_gives_the_pinned_bytes_and_summary(self, capsys, tmp_path):
        out = tmp_path / "expressions.jsonl"
        code, serial = self._generate(capsys, out)
        assert code == 0 and sha256(out) == EXPRESSIONS_SHA256
        for workers in (1, 2, 3, self.FIXTURE_RUNS + 3):
            out.unlink()
            code, summary = self._generate(capsys, out, "--workers", str(workers))
            assert code == 0
            assert sha256(out) == EXPRESSIONS_SHA256, workers
            assert summary == serial, workers

    def test_spawned_workers_give_the_pinned_bytes(self, capsys, tmp_path, monkeypatch):
        made = []
        real = concurrent.futures.ProcessPoolExecutor

        def spawning(**kwargs):
            made.append(kwargs)
            return real(mp_context=multiprocessing.get_context("spawn"), **kwargs)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", spawning)
        self._allow_cpus(monkeypatch, 2)
        out = tmp_path / "expressions.jsonl"
        code, _ = self._generate(capsys, out, "--workers", "2")
        assert code == 0
        assert len(made) == 1
        assert sha256(out) == EXPRESSIONS_SHA256

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
    def test_an_error_raised_in_a_worker_exits_3_and_leaves_no_output(self, tmp_path, monkeypatch, caplog):
        parent = os.getpid()
        real_generate = cli.generate

        def failing_in_a_worker(graph, target, config, rng):
            if os.getpid() != parent and graph.image_id == "img010":
                raise SchemaViolation(f"bad image {graph.image_id} in worker")
            return real_generate(graph, target, config, rng)

        # Patched before the workers are forked, so they inherit the patch.
        monkeypatch.setattr(cli, "generate", failing_in_a_worker)
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        self._allow_cpus(monkeypatch, 2)
        out, log = tmp_path / "out.jsonl", tmp_path / "log.json"
        out.write_text("stale\n")
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main(["generate", "--corpus", CORPUS_PATH, "--out", str(out), "--log", str(log),
                         "--workers", "2"])
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert code == 3
        assert errors == ["bad image img010 in worker"]
        assert not out.exists() and not log.exists()

    def test_the_pool_is_no_larger_than_the_runs_of_work(self, capsys, tmp_path, inline_pool):
        out = tmp_path / "expressions.jsonl"
        code, _ = self._generate(capsys, out, "--workers", "500")
        assert code == 0
        assert inline_pool.sizes == [self.FIXTURE_RUNS]
        assert sha256(out) == EXPRESSIONS_SHA256

    def test_at_most_two_runs_per_worker_are_outstanding(self, capsys, tmp_path, inline_pool):
        out = tmp_path / "expressions.jsonl"
        code, _ = self._generate(capsys, out, "--workers", "2")
        assert code == 0
        assert inline_pool.sizes == [2]
        assert inline_pool.most_outstanding == 4
        assert sha256(out) == EXPRESSIONS_SHA256

    def test_a_process_allowed_one_of_many_cpus_runs_serially(self, capsys, tmp_path, inline_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, _ = self._generate(capsys, tmp_path / "expressions.jsonl", "--workers", "2")
        assert code == 0
        assert inline_pool.sizes == []

    def test_one_run_of_work_or_one_cpu_runs_serially(self, capsys, tmp_path, inline_pool, monkeypatch):
        corpus = tmp_path / "corpus.json"
        with open(CORPUS_PATH, encoding="utf-8") as handle:
            payload = json.load(handle)
        corpus.write_text(json.dumps(dict(list(payload.items())[:cli.RUN_IMAGES])))
        out = tmp_path / "expressions.jsonl"
        assert main(["generate", "--corpus", str(corpus), "--out", str(out), "--workers", "8"]) == 0
        self._allow_cpus(monkeypatch, 1)
        assert main(["generate", "--corpus", CORPUS_PATH, "--out", str(out), "--workers", "8"]) == 0
        assert inline_pool.sizes == []


class TestDistract:
    def test_yield_and_structure(self, pipeline_dir):
        payloads = read_lines(pipeline_dir / "instances.jsonl")
        assert len(payloads) >= 25
        for payload in payloads:
            instance = TaskInstance.from_jsonable(payload)
            assert len(instance.images) == 13
        with open(pipeline_dir / "distract.log.json", encoding="utf-8") as handle:
            log = json.load(handle)
        assert log["instances"] == len(payloads)
        assert log["discarded"] + log["instances"] == log["expressions"]

    def test_output_bytes_are_pinned(self, pipeline_dir):
        assert sha256(pipeline_dir / "instances.jsonl") == INSTANCES_SHA256

    def test_discard_details_are_pinned(self, pipeline_dir):
        with open(pipeline_dir / "distract.log.json", encoding="utf-8") as handle:
            log = json.load(handle)
        assert (log["discarded"], log["expressions"]) == (199, 242)
        encoded = json.dumps(log["discard_details"], sort_keys=True).encode()
        assert hashlib.sha256(encoded).hexdigest() == DISCARDS_SHA256

    def _distract_with_second_line(self, pipeline_dir, tmp_path, caplog, edit):
        """Run distract on two expressions, the second one edited; return the code."""
        first, second = read_lines(pipeline_dir / "expressions.jsonl")[:2]
        edit(second)
        path = tmp_path / "expressions.jsonl"
        path.write_text("".join(json.dumps(p) + "\n" for p in (first, second)))
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main([
                "distract", "--corpus", CORPUS_PATH,
                "--expressions", str(path), "--out", str(tmp_path / "out.jsonl"),
            ])
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert f"{path}:2" in errors[0] and second["expr_id"] in errors[0]
        return code

    def test_unknown_image_exits_3(self, pipeline_dir, tmp_path, caplog):
        def edit(payload):
            payload["image_id"] = "no-such-image"

        assert self._distract_with_second_line(pipeline_dir, tmp_path, caplog, edit) == 3

    def test_unknown_target_exits_3(self, pipeline_dir, tmp_path, caplog):
        def edit(payload):
            payload["target_id"] = "no-such-object"

        assert self._distract_with_second_line(pipeline_dir, tmp_path, caplog, edit) == 3

    def test_tree_that_misses_its_target_exits_3(self, pipeline_dir, tmp_path, caplog):
        graphs = load_corpus_path(CORPUS_PATH).graphs

        def edit(payload):
            nodes = graphs[payload["image_id"]].nodes
            payload["target_id"] = next(n.id for n in nodes if n.id != payload["target_id"])

        assert self._distract_with_second_line(pipeline_dir, tmp_path, caplog, edit) == 3

    @pytest.mark.parametrize("edit", [
        lambda payload: 5,
        lambda payload: {**payload, "image_id": ["x"]},
        lambda payload: {**payload, "target_id": 7},
        lambda payload: {**payload, "tree": {**payload["tree"], "root": {"category": ["x"]}}},
        lambda payload: _with_order_index(payload, True),
        lambda payload: _with_order_index(payload, 1.0),
        lambda payload: {**payload, "form": "not"},
        lambda payload: {**payload, "tokens": [[5, "function-word"], *payload["tokens"][1:]]},
    ], ids=["non-object", "list-image-id", "int-target-id", "list-tree-category",
            "bool-order-index", "float-order-index", "form-not-the-tree-form", "int-token-surface"])
    def test_malformed_record_exits_3_naming_its_line(self, pipeline_dir, tmp_path, caplog, edit):
        # The first expression is "the first ... from the right": an order
        # index of 1, which true and 1.0 would pass for if they were read.
        ordered, other = read_lines(pipeline_dir / "expressions.jsonl")[:2]
        assert ordered["tree"]["root"]["order"]["index"] == 1
        path = tmp_path / "expressions.jsonl"
        path.write_text("".join(json.dumps(p) + "\n" for p in (other, edit(ordered))))
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main([
                "distract", "--corpus", CORPUS_PATH,
                "--expressions", str(path), "--out", str(tmp_path / "out.jsonl"),
            ])
        assert code == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and f"{path}:2:" in errors[0]

    def test_no_full_set_exits_4_and_leaves_no_output(self, pipeline_dir, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text("stale\n")
        code = main([
            "distract", "--corpus", CORPUS_PATH, "--per-type", "20",
            "--expressions", str(pipeline_dir / "expressions.jsonl"), "--out", str(out),
        ])
        assert code == 4
        assert not out.exists()

    def test_empty_expressions_file_exits_4(self, tmp_path):
        empty = tmp_path / "expressions.jsonl"
        empty.write_text("")
        code = main([
            "distract", "--corpus", CORPUS_PATH,
            "--expressions", str(empty), "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 4


def _with_order_index(payload, index):
    root = payload["tree"]["root"]
    order = {**root["order"], "index": index}
    return {**payload, "tree": {**payload["tree"], "root": {**root, "order": order}}}


def _first_region_list_broken(payload):
    image_id = payload["target_image"]
    payload["candidate_regions"][image_id] = [[payload["candidate_regions"][image_id][0][0]]]
    return payload


def _distractor_without_regions(payload):
    payload["distractors"]["Cat"][0] = "nope"
    return payload


class TestMalformedInstances:
    """split, stats and eval stop with exit 3 and name the bad line."""

    @pytest.mark.parametrize("command", ["split", "stats", "eval"])
    @pytest.mark.parametrize("edit", [
        lambda payload: 5,
        lambda payload: {**payload, "candidate_regions": [["o1", {}]]},
        _first_region_list_broken,
        _distractor_without_regions,
    ], ids=["non-object", "regions-not-an-object", "region-not-a-pair", "image-without-regions"])
    def test_exits_3_naming_the_line(self, pipeline_dir, tmp_path, caplog, command, edit):
        first, second = read_lines(pipeline_dir / "instances.jsonl")[:2]
        path = tmp_path / "instances.jsonl"
        path.write_text("".join(json.dumps(p) + "\n" for p in (first, edit(second))))
        extra = {
            "split": ["--out-dir", str(tmp_path / "split")],
            "stats": ["--json"],
            "eval": ["--scorer", "constant"],
        }[command]
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main([command, "--instances", str(path), *extra])
        assert code == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and f"{path}:2:" in errors[0]


def _cat_distractor_renamed(payload):
    old = payload["distractors"]["Cat"][0]
    payload["distractors"]["Cat"][0] = "no-such-image"
    payload["candidate_regions"]["no-such-image"] = payload["candidate_regions"].pop(old)
    return payload


def _target_image_renamed(payload):
    old = payload["target_image"]
    payload["target_image"] = "no-such-image"
    payload["candidate_regions"]["no-such-image"] = payload["candidate_regions"].pop(old)
    return payload


def _target_id_unknown(payload):
    payload["expression"]["target_id"] = "no-such-object"
    return payload


class TestInstancesAgainstTheCorpus:
    """With --corpus, stats and eval reject instances the corpus contradicts."""

    @pytest.mark.parametrize("command", [
        ["stats", "--json"],
        ["eval", "--scorer", "oracle"],
        ["eval", "--scorer", "constant"],
    ], ids=["stats", "eval-oracle", "eval-constant"])
    @pytest.mark.parametrize("edit", [
        _cat_distractor_renamed, _target_image_renamed, _target_id_unknown,
    ], ids=["unknown-distractor", "unknown-target-image", "unknown-target-object"])
    def test_exits_3_naming_the_line(self, pipeline_dir, tmp_path, caplog, command, edit):
        first, second = read_lines(pipeline_dir / "instances.jsonl")[:2]
        path = tmp_path / "instances.jsonl"
        path.write_text("".join(json.dumps(p) + "\n" for p in (first, edit(second))))
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main([*command, "--instances", str(path), "--corpus", CORPUS_PATH])
        assert code == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and f"{path}:2:" in errors[0]
        assert second["expression"]["expr_id"] in errors[0]


def _first_region_box_edited(payload, edit):
    regions = payload["candidate_regions"][payload["target_image"]]
    regions[0] = [regions[0][0], edit(regions[0][1])]
    return payload


class TestBoxRule:
    """A record's box breaking the corpus's box rule exits 3 naming its line."""

    def _second_line_exits_3(self, argv, flag, lines, tmp_path, caplog):
        path = tmp_path / "input.jsonl"
        path.write_text("".join(json.dumps(p) + "\n" for p in lines))
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main([*argv, flag, str(path)])
        assert code == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and f"{path}:2:" in errors[0]

    @pytest.mark.parametrize("command", ["distract", "stats"])
    @pytest.mark.parametrize("edit", BAD_BOX_EDITS.values(), ids=BAD_BOX_EDITS)
    def test_bad_target_box(self, pipeline_dir, tmp_path, caplog, command, edit):
        first, second = read_lines(pipeline_dir / "expressions.jsonl")[:2]
        second["target_box"] = edit(second["target_box"])
        argv = {
            "distract": ["distract", "--corpus", CORPUS_PATH, "--out", str(tmp_path / "out.jsonl")],
            "stats": ["stats", "--json"],
        }[command]
        self._second_line_exits_3(argv, "--expressions", (first, second), tmp_path, caplog)

    @pytest.mark.parametrize("command", ["split", "stats", "eval"])
    @pytest.mark.parametrize("edit", BAD_BOX_EDITS.values(), ids=BAD_BOX_EDITS)
    def test_bad_region_box(self, pipeline_dir, tmp_path, caplog, command, edit):
        first, second = read_lines(pipeline_dir / "instances.jsonl")[:2]
        argv = {
            "split": ["split", "--out-dir", str(tmp_path / "split")],
            "stats": ["stats", "--json"],
            "eval": ["eval", "--scorer", "constant"],
        }[command]
        lines = (first, _first_region_box_edited(second, edit))
        self._second_line_exits_3(argv, "--instances", lines, tmp_path, caplog)


class TestSplit:
    def test_partitions_cover_everything(self, pipeline_dir, tmp_path):
        assert main([
            "split", "--instances", str(pipeline_dir / "instances.jsonl"),
            "--out-dir", str(tmp_path), "--seed", "0",
        ]) == 0
        parts = {name: read_lines(tmp_path / f"{name}.jsonl") for name in ("train", "val", "test")}
        total = read_lines(pipeline_dir / "instances.jsonl")
        assert sum(len(p) for p in parts.values()) == len(total)
        images = {name: {p["target_image"] for p in part} for name, part in parts.items()}
        assert not (images["train"] & images["val"])
        assert not (images["train"] & images["test"])
        assert not (images["val"] & images["test"])

    def test_unknown_keys_are_dropped(self, pipeline_dir, tmp_path):
        # Distract's lines are canonical; split writes each one back without
        # the keys an instance, its expression or a box does not define.
        lines = (pipeline_dir / "instances.jsonl").read_text().splitlines()
        padded = []
        for line in lines:
            payload = json.loads(line)
            payload["note"] = 1
            payload["expression"]["note"] = 2
            for regions in payload["candidate_regions"].values():
                for _, box in regions:
                    box["label"] = "cup"
            padded.append(json.dumps(payload))
        path = tmp_path / "padded.jsonl"
        path.write_text("".join(line + "\n" for line in padded))
        assert main(["split", "--instances", str(path), "--out-dir", str(tmp_path / "split")]) == 0
        written = [
            line for name in ("train", "val", "test")
            for line in (tmp_path / "split" / f"{name}.jsonl").read_text().splitlines()
        ]
        assert sorted(written) == sorted(lines)

    def test_malformed_ratios_exit_2(self, pipeline_dir, tmp_path):
        code = main([
            "split", "--instances", str(pipeline_dir / "instances.jsonl"),
            "--out-dir", str(tmp_path), "--ratios", "0.5,0.5",
        ])
        assert code == 2

    def test_output_bytes_are_pinned(self, pipeline_dir, tmp_path):
        assert main([
            "split", "--instances", str(pipeline_dir / "instances.jsonl"),
            "--out-dir", str(tmp_path), "--seed", str(PIPELINE_SEED),
        ]) == 0
        assert {name: sha256(tmp_path / f"{name}.jsonl") for name in SPLIT_SHA256} == SPLIT_SHA256

    @pytest.mark.parametrize("first, second", [(1, 1.0), (1.0, 1)], ids=["int-first", "float-first"])
    def test_equal_numbers_keep_their_own_spelling(self, pipeline_dir, tmp_path, first, second):
        # 1 == 1.0, but the lines give one image different region lists, and
        # each is written back as it was read.
        payload = read_lines(pipeline_dir / "instances.jsonl")[0]
        lines = []
        for number in (first, second, first):
            payload["candidate_regions"][payload["target_image"]][0][1]["x"] = number
            lines.append(json.dumps(payload, sort_keys=True))
        path = tmp_path / "instances.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        assert main(["split", "--instances", str(path), "--out-dir", str(tmp_path / "split")]) == 0
        written = [
            line for name in ("train", "val", "test")
            for line in (tmp_path / "split" / f"{name}.jsonl").read_text().splitlines()
        ]
        assert written == lines


def _nothing_in(directory):
    return not directory.exists() or not any(directory.iterdir())


class TestFailedRunsLeaveNoOutput:
    """A command that fails removes the files it was writing."""

    @pytest.mark.parametrize("stale", [False, True], ids=["fresh", "stale"])
    def test_distract_stopped_by_a_bad_line(self, pipeline_dir, tmp_path, stale):
        # Every line but the last is valid and gives the pinned instances,
        # which are written before the bad last line is read.
        assert read_lines(pipeline_dir / "instances.jsonl")
        path = tmp_path / "expressions.jsonl"
        path.write_text((pipeline_dir / "expressions.jsonl").read_text() + "{broken\n")
        out, log = tmp_path / "out.jsonl", tmp_path / "log.json"
        if stale:
            out.write_text("stale\n")
            log.write_text("stale\n")
        code = main([
            "distract", "--corpus", CORPUS_PATH, "--expressions", str(path),
            "--out", str(out), "--log", str(log),
        ])
        assert code == 3
        assert not out.exists() and not log.exists()

    def test_split_stopped_by_a_bad_line(self, pipeline_dir, tmp_path):
        path = tmp_path / "instances.jsonl"
        path.write_text((pipeline_dir / "instances.jsonl").read_text() + "{broken\n")
        out_dir = tmp_path / "split"
        assert main(["split", "--instances", str(path), "--out-dir", str(out_dir)]) == 3
        assert _nothing_in(out_dir)

    def test_split_that_cannot_open_a_part(self, pipeline_dir, tmp_path):
        out_dir = tmp_path / "split"
        (out_dir / "val.jsonl").mkdir(parents=True)
        code = main(["split", "--instances", str(pipeline_dir / "instances.jsonl"), "--out-dir", str(out_dir)])
        assert code == 3
        # train.jsonl was opened first, and is removed again.
        assert [p.name for p in out_dir.iterdir()] == ["val.jsonl"]

    def test_generate_that_writes_nothing(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_area_ratio": 1.0}))
        out, log = tmp_path / "out.jsonl", tmp_path / "log.json"
        out.write_text("stale\n")
        code = main([
            "generate", "--corpus", CORPUS_PATH, "--config", str(config),
            "--out", str(out), "--log", str(log),
        ])
        assert code == 4
        assert not out.exists() and not log.exists()

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_distract_writing_over_its_expressions_exits_2(self, pipeline_dir, tmp_path, flag):
        path = tmp_path / "expressions.jsonl"
        shutil.copy(pipeline_dir / "expressions.jsonl", path)
        outputs = {"--out": str(tmp_path / "out.jsonl"), "--log": str(tmp_path / "log.json")}
        outputs[flag] = str(tmp_path / "." / "expressions.jsonl")  # the same file, spelled differently
        code = main([
            "distract", "--corpus", CORPUS_PATH, "--expressions", str(path),
            *(arg for pair in outputs.items() for arg in pair),
        ])
        assert code == 2
        assert path.read_bytes() == (pipeline_dir / "expressions.jsonl").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expressions.jsonl"]


class TestSplitMemory:
    def test_peak_does_not_grow_with_the_instances(self, pipeline_dir, tmp_path):
        lines = (pipeline_dir / "instances.jsonl").read_text()
        peaks = {}
        for copies in (1, 1, 4):  # the first run warms up what is cached once per process
            path = tmp_path / f"instances{copies}.jsonl"
            path.write_text(lines * copies)
            tracemalloc.start()
            try:
                assert main(["split", "--instances", str(path), "--out-dir", str(tmp_path / "split")]) == 0
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 1.5 * peaks[1], peaks


class TestNonStandardNumbers:
    """NaN, Infinity and -Infinity are not JSON; 1e999 is JSON, but not a finite number."""

    @pytest.mark.parametrize("command", ["split", "eval"])
    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_in_a_region_box_exits_3_naming_the_line(self, pipeline_dir, tmp_path, caplog, command, number):
        first, second = (pipeline_dir / "instances.jsonl").read_text().splitlines()[:2]
        edited = _first_region_box_edited(json.loads(second), lambda box: {**box, "w": "WIDTH"})
        path = tmp_path / "instances.jsonl"
        path.write_text(first + "\n" + json.dumps(edited).replace('"WIDTH"', number) + "\n")
        out_dir = tmp_path / "split"
        argv = {
            "split": ["split", "--out-dir", str(out_dir)],
            "eval": ["eval", "--scorer", "constant"],
        }[command]
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main([*argv, "--instances", str(path)])
        assert code == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and f"{path}:2:" in errors[0]
        assert _nothing_in(out_dir)

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("flag", ["--synonyms", "--lexicon", "--templates", "--config", "--scores-file"])
    def test_in_a_document_exits_3_naming_the_file(self, pipeline_dir, tmp_path, caplog, flag, number):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"seed": {number}}}')
        generate = ["generate", "--corpus", CORPUS_PATH, "--out", str(tmp_path / "out.jsonl")]
        command = {
            "--synonyms": ["schema-check", "--corpus", CORPUS_PATH],
            "--lexicon": generate,
            "--templates": generate,
            "--config": generate,
            "--scores-file": ["eval", "--instances", str(pipeline_dir / "instances.jsonl")],
        }[flag]
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main([*command, flag, str(bad)])
        assert code == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and str(bad) in errors[0] and number in errors[0]


# Two kinds of JSON that Python's decoder cannot hold: nesting past the
# recursion limit, and an integer past the int-string conversion limit.
DEEP_NESTING = "[" * 100_000 + "]" * 100_000
LONG_INTEGER = "1" * 5000


def _instance_line(second, case):
    if case == "deep-line":
        return DEEP_NESTING
    value = DEEP_NESTING if case == "deep-box" else LONG_INTEGER
    edited = _first_region_box_edited(json.loads(second), lambda box: {**box, "x": "X"})
    return json.dumps(edited).replace('"X"', value)


class TestUnreadableJson:
    """Nesting too deep and integers too long to read exit 3, never in a traceback."""

    @pytest.mark.parametrize("command", ["split", "stats", "eval"])
    @pytest.mark.parametrize("case", ["deep-line", "deep-box", "long-integer-box"])
    def test_in_an_instance_line_exits_3_naming_the_line(self, pipeline_dir, tmp_path, caplog, command, case):
        first, second = (pipeline_dir / "instances.jsonl").read_text().splitlines()[:2]
        path = tmp_path / "instances.jsonl"
        path.write_text(first + "\n" + _instance_line(second, case) + "\n")
        out_dir = tmp_path / "split"
        argv = {
            "split": ["split", "--out-dir", str(out_dir)],
            "stats": ["stats", "--json"],
            "eval": ["eval", "--scorer", "constant"],
        }[command]
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main([*argv, "--instances", str(path)])
        assert code == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and f"{path}:2:" in errors[0]
        assert _nothing_in(out_dir)

    @pytest.mark.parametrize("case", ["deep", "long-integer"])
    @pytest.mark.parametrize("flag", ["--corpus", "--config", "--scores-file"])
    def test_in_a_document_exits_3_naming_the_file(self, pipeline_dir, tmp_path, caplog, flag, case):
        bad = tmp_path / "bad.json"
        if case == "deep":
            bad.write_text(DEEP_NESTING)
        elif flag == "--corpus":
            with open(CORPUS_PATH, encoding="utf-8") as handle:
                corpus = handle.read()
            bad.write_text(re.sub(r'"width": \d+', f'"width": {LONG_INTEGER}', corpus, count=1))
        else:
            bad.write_text(f'{{"seed": {LONG_INTEGER}}}')
        command = {
            "--corpus": ["schema-check"],
            "--config": ["generate", "--corpus", CORPUS_PATH, "--out", str(tmp_path / "out.jsonl")],
            "--scores-file": ["eval", "--instances", str(pipeline_dir / "instances.jsonl")],
        }[flag]
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main([*command, flag, str(bad)])
        assert code == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and str(bad) in errors[0]


class TestStats:
    def test_json_summary(self, pipeline_dir, capsys):
        assert main([
            "stats", "--corpus", CORPUS_PATH,
            "--expressions", str(pipeline_dir / "expressions.jsonl"),
            "--instances", str(pipeline_dir / "instances.jsonl"),
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["image_count"] == 20
        assert payload["expression_count"] > 100
        assert payload["avg_candidates"] > 50

    @pytest.mark.parametrize("index", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_order_index_exits_3_naming_its_line(self, pipeline_dir, tmp_path, caplog, index):
        ordered, other = read_lines(pipeline_dir / "expressions.jsonl")[:2]
        path = tmp_path / "expressions.jsonl"
        path.write_text("".join(json.dumps(p) + "\n" for p in (other, _with_order_index(ordered, index))))
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            assert main(["stats", "--expressions", str(path), "--json"]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and f"{path}:2:" in errors[0]

    def test_plain_table(self, capsys):
        assert main(["stats", "--corpus", CORPUS_PATH]) == 0
        assert "images" in capsys.readouterr().out

    def test_json_report_is_pinned(self, pipeline_dir, capsys):
        assert stdout_sha256(capsys, [
            "stats", "--corpus", CORPUS_PATH,
            "--expressions", str(pipeline_dir / "expressions.jsonl"),
            "--instances", str(pipeline_dir / "instances.jsonl"),
            "--json",
        ]) == STATS_SHA256


class TestEval:
    def test_oracle_is_perfect(self, pipeline_dir, capsys):
        assert main([
            "eval", "--instances", str(pipeline_dir / "instances.jsonl"),
            "--corpus", CORPUS_PATH, "--scorer", "oracle", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        for setting, result in payload["settings"].items():
            assert result["overall"]["accuracy"] == 1.0, setting

    def test_oracle_without_corpus_exits_2(self, pipeline_dir):
        code = main([
            "eval", "--instances", str(pipeline_dir / "instances.jsonl"),
            "--scorer", "oracle",
        ])
        assert code == 2

    def test_oracle_without_corpus_exits_2_before_reading_instances(self, tmp_path):
        empty = tmp_path / "instances.jsonl"
        empty.write_text("")
        assert main(["eval", "--instances", str(empty), "--scorer", "oracle"]) == 2
        assert main(["eval", "--instances", str(empty), "--scorer", "constant"]) == 4

    def test_scores_file_and_scorer_conflict_exits_2(self, pipeline_dir, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text("{}")
        code = main([
            "eval", "--instances", str(pipeline_dir / "instances.jsonl"),
            "--scorer", "constant", "--scores-file", str(scores),
        ])
        assert code == 2

    def test_hash_random_runs_on_a_subset_of_settings(self, pipeline_dir, capsys):
        assert main([
            "eval", "--instances", str(pipeline_dir / "instances.jsonl"),
            "--scorer", "hash-random", "--settings", "Full", "WithoutDist", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["settings"]) == {"Full", "WithoutDist"}

    @pytest.mark.parametrize("scorer, pinned", [
        (["--scorer", "hash-random", "--seed", str(PIPELINE_SEED)], EVAL_HASH_RANDOM_SHA256),
        (["--scorer", "oracle", "--corpus", CORPUS_PATH], EVAL_ORACLE_SHA256),
    ], ids=["hash-random", "oracle"])
    def test_json_report_is_pinned(self, pipeline_dir, capsys, scorer, pinned):
        argv = ["eval", "--instances", str(pipeline_dir / "instances.jsonl"), *scorer, "--json"]
        assert stdout_sha256(capsys, argv) == pinned


    @pytest.mark.parametrize("child", [
        "import sys\nsys.stdin.readline()\nprint('{\"score\": 0.5}', flush=True)\n",
        "import sys\nfor line in sys.stdin:\n    print('{\"score\": \"high\"}', flush=True)\n",
    ], ids=["dies", "non-number"])
    def test_failing_command_scorer_exits_3(self, pipeline_dir, tmp_path, child):
        script = tmp_path / "child.py"
        script.write_text(child)
        code = main([
            "eval", "--instances", str(pipeline_dir / "instances.jsonl"),
            "--command", shlex.join([sys.executable, str(script)]),
        ])
        assert code == 3


def mixed_size_draws_sha256() -> str:
    """sha256 of 2,000 seeded draws over 60 small categories and one of 300 regions."""
    from refsynth.mining import ModularEmbedding, build_sampling_table, sample_negatives
    from refsynth.synthgen import make_embeddings

    embeddings = make_embeddings(17, 400, dim=8, category_count=60) + [
        ModularEmbedding(region_id=f"L{e.region_id}", category="L", modules=e.modules)
        for e in make_embeddings(18, 300, dim=8, category_count=1)
    ]
    table = build_sampling_table(embeddings)
    sizes: dict[str, int] = {}
    for category, _ in table.index.values():
        sizes[category] = sizes.get(category, 0) + 1
    ids = sorted(r for r, (category, _) in table.index.items() if sizes[category] > 1)
    pick, rng = random.Random(PIPELINE_SEED), random.Random(PIPELINE_SEED + 1)
    digest = hashlib.sha256()
    for _ in range(2000):
        region = ids[pick.randrange(len(ids))]
        peers = sample_negatives(table, rng, region)
        digest.update(f"{region}>{','.join(peers.values())}\n".encode())
    return digest.hexdigest()


class TestMineDemo:
    def test_synthetic_demo_reports_refreshes(self, capsys):
        assert main([
            "mine-demo", "--regions", "64", "--dim", "8",
            "--iterations", "120", "--seed", "0",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] == 120
        assert payload["refreshes"] == 2
        assert payload["mean_total_loss"] >= 0.0

    @pytest.mark.parametrize("argv, expected", [
        (["--corpus", CORPUS_PATH, "--iterations", "200"], MINE_DEMO_CORPUS_SHA256),
        (["--regions", "64", "--dim", "8", "--iterations", "120"], MINE_DEMO_SYNTHETIC_SHA256),
    ], ids=["corpus", "synthetic"])
    def test_gives_the_pinned_bytes(self, capsys, argv, expected):
        assert stdout_sha256(capsys, ["mine-demo", *argv]) == expected

    def test_draws_give_the_pinned_bytes(self):
        assert mixed_size_draws_sha256() == DRAWS_SHA256

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_iterations_below_one_exit_2(self, iterations):
        code = main([
            "mine-demo", "--regions", "64", "--dim", "8", "--iterations", iterations,
        ])
        assert code == 2


class TestNumericFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["mine-demo", "--regions", "-5"], "--regions"),
        (["mine-demo", "--regions", "0"], "--regions"),
        (["mine-demo", "--dim", "-2"], "--dim"),
        (["mine-demo", "--dim", "0"], "--dim"),
        (["stats", "--corpus", CORPUS_PATH, "--top-k", "-1"], "--top-k"),
    ], ids=["regions-negative", "regions-zero", "dim-negative", "dim-zero", "top-k-negative"])
    def test_out_of_range_exits_2_naming_the_flag(self, caplog, argv, flag):
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            assert main(argv) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith(flag)


class TestBadDocuments:
    """Every JSON document flag: a file that is not UTF-8 JSON exits 3 and names itself."""

    @pytest.mark.parametrize("content", [b'{"a": ', b'{"a": "\xc3("}'], ids=["truncated", "not-utf8"])
    @pytest.mark.parametrize("flag", [
        "--corpus", "--synonyms", "--lexicon", "--templates", "--config", "--scores-file",
    ])
    def test_exits_3_naming_the_file(self, pipeline_dir, tmp_path, caplog, flag, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        generate = ["generate", "--corpus", CORPUS_PATH, "--out", str(tmp_path / "out.jsonl")]
        command = {
            "--corpus": ["schema-check"],
            "--synonyms": ["schema-check", "--corpus", CORPUS_PATH],
            "--lexicon": generate,
            "--templates": generate,
            "--config": generate,
            "--scores-file": ["eval", "--instances", str(pipeline_dir / "instances.jsonl")],
        }[flag]
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            code = main([*command, flag, str(bad)])
        assert code == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and str(bad) in errors[0]


class TestSchemaCheck:
    def test_valid_corpus(self, capsys):
        assert main(["schema-check", "--corpus", CORPUS_PATH]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["images"] == 20

    def test_corrupt_corpus_exits_3(self, tmp_path):
        bad = tmp_path / "corpus.json"
        bad.write_text("{]")
        assert main(["schema-check", "--corpus", str(bad)]) == 3

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["schema-check", "--corpus", str(tmp_path / "nope.json")]) == 3


class TestConfigHandling:
    def test_unknown_config_key_exits_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        code = main([
            "generate", "--corpus", CORPUS_PATH,
            "--out", str(tmp_path / "x.jsonl"), "--config", str(config),
        ])
        assert code == 2

    def test_config_file_seed_is_used(self, pipeline_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 0}))
        out = tmp_path / "expressions.jsonl"
        assert main([
            "generate", "--corpus", CORPUS_PATH, "--out", str(out),
            "--config", str(config),
        ]) == 0
        assert out.read_bytes() == (pipeline_dir / "expressions.jsonl").read_bytes()


class TestConfigValidation:
    """A config value of the wrong type or out of range exits 2 naming its field, before any input is read."""

    @pytest.mark.parametrize("config, field", [
        ('{"split_ratios": ["a", 0.5, 0.5]}', "split_ratios"),
        ('{"split_ratios": [true, 0.5, 0.5]}', "split_ratios"),
        ('{"margin": "x"}', "margin"),
        ('{"margin": true}', "margin"),
        ('{"mine_weight": 1e999}', "mine_weight"),
        ('{"min_area_ratio": "0.1"}', "min_area_ratio"),
        ('{"seed": "abc"}', "seed"),
        ('{"seed": 1.0}', "seed"),
        ('{"seed": true}', "seed"),
        ('{"per_type": true}', "per_type"),
        ('{"drop_spatial_only": "no"}', "drop_spatial_only"),
        ('{"drop_spatial_only": 0}', "drop_spatial_only"),
    ])
    def test_config_file(self, tmp_path, caplog, config, field):
        path = tmp_path / "config.json"
        path.write_text(config)
        self._exits_2_naming(caplog, field, [
            "split", "--instances", str(tmp_path / "missing.jsonl"),
            "--out-dir", str(tmp_path / "split"), "--config", str(path),
        ])

    @pytest.mark.parametrize("ratios", ["nan,0.5,0.5", "inf,-inf,1", "0.5,nan,0.5"])
    def test_non_finite_split_ratios(self, tmp_path, caplog, ratios):
        self._exits_2_naming(caplog, "split_ratios", [
            "split", "--instances", str(tmp_path / "missing.jsonl"),
            "--out-dir", str(tmp_path / "split"), "--ratios", ratios,
        ])
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("margin", ["nan", "inf"])
    def test_non_finite_margin(self, caplog, margin):
        self._exits_2_naming(caplog, "margin", ["mine-demo", "--iterations", "1", "--margin", margin])

    def _exits_2_naming(self, caplog, field, argv):
        with caplog.at_level(logging.ERROR, logger="refsynth"):
            assert main(argv) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith(f"{field} ")

    def test_valid_values_of_every_type_are_kept(self):
        config = PipelineConfig(seed=-3, margin=1, mine_weight=0, split_ratios=(0.5, 0.25, 0.25),
                                drop_spatial_only=False, min_area_ratio=0)
        assert config.validated() is config


class TestStartUp:
    def test_importing_the_cli_does_not_load_numpy(self):
        src = os.path.dirname(os.path.dirname(refsynth.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run(
            [sys.executable, "-c", "import sys, refsynth.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_mining_names_are_still_exported(self):
        from refsynth import mining

        assert refsynth.build_sampling_table is mining.build_sampling_table
        assert "SamplingTable" in refsynth.__all__
        with pytest.raises(AttributeError):
            refsynth.no_such_name


class TestPipelineScript:
    def test_runs_every_stage_into_its_out_dir(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(refsynth.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "run_pipeline.py"),
             "--corpus", CORPUS_PATH, "--out-dir", str(tmp_path), "--workers", "2"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr[-3000:]
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [
            "distract.log.json", "expressions.jsonl", "generate.log.json",
            "instances.jsonl", "test.jsonl", "train.jsonl", "val.jsonl",
        ]
        assert sha256(tmp_path / "expressions.jsonl") == EXPRESSIONS_SHA256
        assert sha256(tmp_path / "instances.jsonl") == INSTANCES_SHA256
        parts = [read_lines(tmp_path / f"{name}.jsonl") for name in ("train", "val", "test")]
        assert sum(map(len, parts)) == len(read_lines(tmp_path / "instances.jsonl"))


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("refsynth")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run(
            [exe, "schema-check", "--corpus", CORPUS_PATH],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["ok"] is True
