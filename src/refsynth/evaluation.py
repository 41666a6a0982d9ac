"""Multi-image region selection and accuracy reporting.

A task instance pairs one expression with its source image plus twelve
controlled distractor images.  A scorer assigns a real number to every
candidate region across a chosen subset of those images; the region with the
highest score is the model's answer, and the answer is correct when it is
exactly the annotated target region.  Subsets give six evaluation settings:
the full thirteen-image task, four single-distractor-type variants, and the
classic single-image task with no distractors at all.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import threading
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import IO, Iterable, Mapping, Protocol, Sequence

from .distractor import DistractorType, TaskInstance
from .errors import DataError, EmptyInput, KeyMismatch, MalformedDocument, NoCandidates
from .expression import ExpressionRecord
from .reasoning import match
from .scene_graph import Corpus
from .util import decode_json, hash_uniform, load_json


class Setting(str, Enum):
    """Which candidate images take part in the selection."""

    FULL = "Full"
    DIFF_CAT_ONLY = "DiffCatOnly"
    CAT_ONLY = "CatOnly"
    CAT_ATTR_ONLY = "CatAttrOnly"
    CAT_CAT_ONLY = "CatCatOnly"
    WITHOUT_DIST = "WithoutDist"


_SETTING_TYPE = {
    Setting.DIFF_CAT_ONLY: DistractorType.DIFF_CAT,
    Setting.CAT_ONLY: DistractorType.CAT,
    Setting.CAT_ATTR_ONLY: DistractorType.CAT_ATTR,
    Setting.CAT_CAT_ONLY: DistractorType.CAT_CAT,
}


def setting_images(instance: TaskInstance, setting: Setting) -> tuple[str, ...]:
    """Candidate image ids for one setting, target image first."""
    if setting is Setting.FULL:
        return instance.images
    if setting is Setting.WITHOUT_DIST:
        return (instance.target_image,)
    return (instance.target_image,) + instance.distractors[_SETTING_TYPE[setting]]


Region = tuple[str, str, dict]  # (image id, object id, box record)


class RegionScorer(Protocol):
    """Anything that can rate how well a region fits an expression.

    ``box`` is the region's checked ``{"x", "y", "w", "h"}`` box record, as
    the instance file holds it.  A scorer may also define
    ``score_batch(expression, regions)``, which takes a sequence of
    :data:`Region` triples and returns their scores in the same order;
    :func:`score_regions` prefers it when present.
    """

    def score(
        self,
        expression: ExpressionRecord,
        image_id: str,
        object_id: str,
        box: dict,
    ) -> float: ...


class OracleScorer:
    """Perfect scorer: 1 for regions the reasoning tree accepts, else 0.

    On distractor images the tree accepts nothing by construction, so the
    oracle always lands on the annotated target and scores 100% everywhere.
    """

    def __init__(self, corpus: Corpus, lexicon: Mapping[str, str] | None = None) -> None:
        self.corpus = corpus
        self.lexicon = lexicon
        # Regions arrive image by image, so only the latest match is kept.
        self._key: tuple[str, str] | None = None
        self._matched: frozenset[str] = frozenset()

    def score(self, expression, image_id, object_id, box):
        key = (expression.expr_id, image_id)
        if key != self._key:
            graph = self.corpus.graphs[image_id]
            self._matched = frozenset(match(expression.tree, graph, self.lexicon))
            self._key = key
        return 1.0 if object_id in self._matched else 0.0


class ConstantScorer:
    """Scores every region 0; selection falls through to tie-breaking."""

    def score(self, expression, image_id, object_id, box):
        return 0.0


class HashRandomScorer:
    """Deterministic pseudo-random scores keyed on (expression, region).

    Behaves like an i.i.d. uniform scorer but is reproducible from the seed
    and independent of call order, which makes chance-level accuracy exactly
    computable: each candidate region wins with probability 1/n.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def score(self, expression, image_id, object_id, box):
        return hash_uniform(self.seed, expression.expr_id, image_id, object_id)

    def score_batch(self, expression: ExpressionRecord, regions: Sequence[Region]) -> list[float]:
        """One :meth:`score` per region, hashing the shared seed and expression prefix once."""
        prefix = hashlib.sha256(f"{self.seed}|{expression.expr_id}|".encode("utf-8"))
        scores = []
        for image_id, object_id, _ in regions:
            digest = prefix.copy()
            digest.update(f"{image_id}|{object_id}".encode("utf-8"))
            scores.append(int.from_bytes(digest.digest()[:7], "big") / float(1 << 56))
        return scores


def score_key(expr_id: str, image_id: str, object_id: str) -> str:
    return f"{expr_id}|{image_id}|{object_id}"


class FileScorer:
    """Scores precomputed by an external model and serialized to JSON.

    The file maps ``"<expr_id>|<image_id>|<object_id>"`` to a float.  A
    missing key is a hard error: silently defaulting would let a model skip
    the regions it finds hard.
    """

    def __init__(self, table: Mapping[str, float], name: str = "scores table") -> None:
        self.table = dict(table)
        self.name = name

    @classmethod
    def load(cls, source: IO) -> "FileScorer":
        data = load_json(source, "scores file")
        if not isinstance(data, dict):
            raise DataError("scores file must be a JSON object")
        table = {}
        for key, value in data.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise DataError(f"score for {key!r} is not a number")
            table[key] = float(value)
        return cls(table, getattr(source, "name", "scores file"))

    def score(self, expression, image_id, object_id, box):
        key = score_key(expression.expr_id, image_id, object_id)
        if key not in self.table:
            raise KeyMismatch(f"{self.name} has no score for {key}")
        return self.table[key]


class SubprocessScorer:
    """Bridges to a model running as a child process, one JSON line per query.

    Each request is a single line ``{"box": ..., "expr_id": ..., "image_id":
    ..., "object_id": ..., "text": ...}`` on the child's stdin, the box as read;
    the child must answer each with one line ``{"score": <number>}`` on stdout,
    in request order.  :meth:`score_batch` writes a whole batch from a writer
    thread while it reads the answers, so the child may receive every request
    of a batch before it answers the first.  Use as a context manager so the
    child is reaped.
    """

    def __init__(self, command: Sequence[str]) -> None:
        self.command = list(command)
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "SubprocessScorer":
        self._proc = subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._proc is not None:
            try:
                if self._proc.stdin:
                    self._proc.stdin.close()
            except BrokenPipeError:
                pass  # the child has already gone; wait() reaps it
            if self._proc.stdout:
                self._proc.stdout.close()
            self._proc.wait()
            self._proc = None

    def score(self, expression, image_id, object_id, box):
        return self.score_batch(expression, ((image_id, object_id, box),))[0]

    def score_batch(self, expression: ExpressionRecord, regions: Sequence[Region]) -> list[float]:
        """One score per region, answered by the child in request order.

        On any failure the child is killed, so that a writer blocked on a
        child that stopped reading ends, and the writer is joined before
        this returns or raises.
        """
        proc = self._proc
        if proc is None or proc.stdin is None or proc.stdout is None:
            raise DataError("scorer process is not running")
        requests = "".join(
            json.dumps(
                {
                    "box": box,
                    "expr_id": expression.expr_id,
                    "image_id": image_id,
                    "object_id": object_id,
                    "text": expression.text,
                },
                sort_keys=True,
            ) + "\n"
            for image_id, object_id, box in regions
        )
        failures: list[OSError] = []
        writer = threading.Thread(
            target=_send, args=(proc.stdin, requests, failures), name="refsynth-scorer-writer", daemon=True
        )
        writer.start()
        try:
            values = [_read_score(proc.stdout) for _ in regions]
        except BaseException:
            proc.kill()
            raise
        finally:
            writer.join()
        if failures:
            proc.kill()
            raise DataError(f"scorer process stopped reading requests: {failures[0]}") from failures[0]
        return values


def _send(stream: IO[str], requests: str, failures: list[OSError]) -> None:
    """Writer-thread body: send every request line, note a broken pipe."""
    try:
        stream.write(requests)
        stream.flush()
    except OSError as exc:
        failures.append(exc)


def _read_score(stream: IO[str]) -> float:
    line = stream.readline()
    if not line:
        raise DataError("scorer process closed its output")
    try:
        value = decode_json(line)["score"]
    except (json.JSONDecodeError, MalformedDocument, KeyError, TypeError) as exc:
        raise DataError(f"bad scorer response: {line!r}") from exc
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DataError(f"scorer returned a non-number: {value!r}")
    return float(value)


def score_regions(
    scorer: RegionScorer, expression: ExpressionRecord, regions: Sequence[Region]
) -> list[float]:
    """Scores of the regions in order: one ``score_batch`` call if the
    scorer has it, else one ``score`` call per region."""
    batch = getattr(scorer, "score_batch", None)
    if batch is None:
        return [scorer.score(expression, image_id, object_id, box) for image_id, object_id, box in regions]
    values = batch(expression, regions)
    if len(values) != len(regions):
        raise DataError(f"scorer returned {len(values)} scores for {len(regions)} regions")
    return values


def _score_images(
    instance: TaskInstance, scorer: RegionScorer, image_ids: Iterable[str]
) -> dict[str, list[float]]:
    """Image id -> scores of its candidate regions, in ``candidate_regions``
    order.  Each image is scored once, in first-seen order."""
    candidates = instance.candidate_regions
    pool = tuple(dict.fromkeys(image_ids))
    regions = [(image_id, object_id, box) for image_id in pool for object_id, box in candidates[image_id]]
    values = score_regions(scorer, instance.expression, regions)
    scores = {}
    start = 0
    for image_id in pool:
        end = start + len(candidates[image_id])
        scores[image_id] = values[start:end]
        start = end
    return scores


def _argmax(
    instance: TaskInstance, image_ids: Sequence[str], scores: Mapping[str, Sequence[float]]
) -> tuple[str, str]:
    """Best-scoring candidate region of the images.

    Ties go to the lexicographically smallest (image id, object id) pair, so
    selection is a pure function of the scores.
    """
    best: tuple[str, str] | None = None
    best_score = float("-inf")
    for image_id in image_ids:
        for (object_id, _), value in zip(instance.candidate_regions[image_id], scores[image_id]):
            candidate = (image_id, object_id)
            if value > best_score or (value == best_score and (best is None or candidate < best)):
                best = candidate
                best_score = value
    if best is None:
        raise NoCandidates(f"no candidate regions for {instance.expression.expr_id}")
    return best


def length_bucket(word_count: int) -> str:
    """Short is under 10 words, long is over 20, middle is the rest."""
    if word_count < 10:
        return "short"
    if word_count <= 20:
        return "middle"
    return "long"


@dataclass
class Tally:
    """Running correct/total pair with an accuracy view."""

    correct: int = 0
    total: int = 0

    def add(self, hit: bool) -> None:
        self.correct += int(hit)
        self.total += 1

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def to_jsonable(self) -> dict:
        return {"accuracy": self.accuracy, "correct": self.correct, "total": self.total}


@dataclass
class SettingResult:
    """Accuracy for one setting, overall and sliced two ways."""

    overall: Tally = field(default_factory=Tally)
    per_form: dict[str, Tally] = field(default_factory=dict)
    per_length: dict[str, Tally] = field(default_factory=dict)

    def record(self, form: str, bucket: str, hit: bool) -> None:
        self.overall.add(hit)
        self.per_form.setdefault(form, Tally()).add(hit)
        self.per_length.setdefault(bucket, Tally()).add(hit)

    def to_jsonable(self) -> dict:
        return {
            "overall": self.overall.to_jsonable(),
            "per_form": {k: v.to_jsonable() for k, v in sorted(self.per_form.items())},
            "per_length": {k: v.to_jsonable() for k, v in sorted(self.per_length.items())},
        }


@dataclass
class EvaluationReport:
    """Results for every requested setting over one instance collection."""

    settings: dict[Setting, SettingResult]
    instance_count: int

    def to_jsonable(self) -> dict:
        return {
            "instance_count": self.instance_count,
            "settings": {s.value: r.to_jsonable() for s, r in self.settings.items()},
        }


def evaluate(
    instances: Iterable[TaskInstance],
    scorer: RegionScorer,
    settings: Sequence[Setting] = tuple(Setting),
) -> EvaluationReport:
    """Run selection for each instance under each setting and tally hits.

    Each instance's pool, the images of all requested settings, is scored
    once; every setting is then an argmax over its share of those scores.
    A setting named twice is evaluated once, in first-seen order.
    ``instances`` may be any iterable; it is read once and no instance is kept.
    """
    settings = tuple(dict.fromkeys(settings))
    results = {setting: SettingResult() for setting in settings}
    count = 0
    for instance in instances:
        count += 1
        expr = instance.expression
        bucket = length_bucket(expr.word_count)
        answer = (instance.target_image, expr.target_id)
        per_setting = [setting_images(instance, setting) for setting in settings]
        scores = _score_images(instance, scorer, chain.from_iterable(per_setting))
        for setting, image_ids in zip(settings, per_setting):
            chosen = _argmax(instance, image_ids, scores)
            results[setting].record(expr.form.value, bucket, chosen == answer)
    if not count:
        raise EmptyInput("no task instances to evaluate")
    return EvaluationReport(settings=results, instance_count=count)


def format_report(report: EvaluationReport) -> str:
    """Fixed-width table of accuracies, one row per setting."""
    lines = [f"instances: {report.instance_count}", f"{'setting':<16}{'accuracy':>10}{'correct':>10}{'total':>8}"]
    for setting, result in report.settings.items():
        tally = result.overall
        lines.append(f"{setting.value:<16}{tally.accuracy:>10.4f}{tally.correct:>10}{tally.total:>8}")
    return "\n".join(lines)
