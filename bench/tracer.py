"""Spans and counters for the benchmark, installed from outside the program.

A :class:`Tracer` replaces public functions of ``refsynth`` modules with
timing wrappers, at the names their callers look up (``match`` is looked up
in ``refsynth.reasoning``, ``refsynth.distractor`` and
``refsynth.evaluation``; ``find_distractors`` in ``refsynth.cli``; ``score``
on each scorer class).  Nothing under ``src/`` knows about it.

Two kinds of wrapper exist:

* a *span* wrapper records one span per call: name, start, end and the
  index of the span that was open when it was called;
* a *hot* wrapper, for calls made hundreds of thousands of times per stage
  (``match``, ``score``), records no span.  It adds the call to a count, a
  total time and a fixed-bucket latency histogram kept on the open span.

Spans stay in memory and are written out once, when the traced run ends.
A target that no longer exists is reported in ``Tracer.absent`` and the run
goes on.

Run as a script, the module traces one CLI stage in-process::

    python bench/tracer.py OUT.json -- distract --corpus c.json ...

It writes the spans to ``OUT.json`` and exits with the stage's exit code.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from time import perf_counter

# Histogram buckets: 20 per decade of microseconds, so a bucket is 12% wide.
BUCKETS_PER_DECADE = 20

SPAN = "span"
HOT = "hot"

# (module, attribute looked up by callers, metric name, kind)
CLI_TARGETS = (
    ("refsynth.scene_graph", "load_corpus", "scene_graph.load_corpus", SPAN),
    ("refsynth.reasoning", "match", "reasoning.match", HOT),
    ("refsynth.distractor", "match", "reasoning.match", HOT),
    ("refsynth.evaluation", "match", "reasoning.match", HOT),
    ("refsynth.cli", "generate", "expression.generate", SPAN),
    ("refsynth.expression", "ExpressionRecord.from_jsonable",
     "expression.ExpressionRecord.from_jsonable", SPAN),
    ("refsynth.cli", "relation_weights", "balance.relation_weights", SPAN),
    ("refsynth.cli", "split", "balance.split", SPAN),
    ("refsynth.cli", "compute_stats", "balance.compute_stats", SPAN),
    ("refsynth.cli", "find_distractors", "distractor.find_distractors", SPAN),
    ("refsynth.cli", "missing_counts", "distractor.missing_counts", SPAN),
    ("refsynth.distractor", "TaskInstance.to_jsonable", "distractor.TaskInstance.to_jsonable", SPAN),
    ("refsynth.distractor", "TaskInstance.from_jsonable",
     "distractor.TaskInstance.from_jsonable", SPAN),
    ("refsynth.cli", "evaluate", "evaluation.evaluate", SPAN),
    ("refsynth.evaluation", "select_region", "evaluation.select_region", SPAN),
    ("refsynth.evaluation", "HashRandomScorer.score", "evaluation.score", HOT),
    ("refsynth.evaluation", "OracleScorer.score", "evaluation.score", HOT),
    ("refsynth.evaluation", "SubprocessScorer.score", "evaluation.score", HOT),
)

# Called by the benchmark itself, through the module attribute.
SETUP_TARGETS = (
    ("refsynth.synthgen", "make_corpus_payload", "synthgen.make_corpus_payload", SPAN),
    ("refsynth.synthgen", "make_embeddings", "synthgen.make_embeddings", SPAN),
)
MINE_TARGETS = (
    ("refsynth.mining", "build_sampling_table", "mining.build_sampling_table", SPAN),
    ("refsynth.mining", "sample_negatives", "mining.sample_negatives", SPAN),
)


def bucket_of(seconds: float) -> int:
    """Histogram bucket of one latency; bucket b starts at 10**(b/20) us."""
    micros = max(seconds * 1e6, 1e-3)
    return math.floor(math.log10(micros) * BUCKETS_PER_DECADE)


def bucket_value_us(bucket: int) -> float:
    """Geometric middle of a bucket, in microseconds."""
    return 10 ** ((bucket + 0.5) / BUCKETS_PER_DECADE)


class Tracer:
    """Spans and hot-call counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.hot: dict[int, dict[str, list]] = {}  # span -> name -> [count, total, {bucket: n}]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def span_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = fn
        return traced

    def hot_wrapper(self, name: str, fn):
        stack = self._stack
        hot = self.hot

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                per_span = hot.setdefault(stack[-1] if stack else -1, {})
                entry = per_span.get(name)
                if entry is None:
                    entry = per_span[name] = [0, 0.0, {}]
                entry[0] += 1
                entry[1] += elapsed
                histogram = entry[2]
                bucket = bucket_of(elapsed)
                histogram[bucket] = histogram.get(bucket, 0) + 1

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap every target that exists; note the metric of each that does not."""
        for module_name, attribute, name, kind in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            make = self.hot_wrapper if kind == HOT else self.span_wrapper
            if isinstance(raw, classmethod):
                replacement = classmethod(make(name, raw.__func__))
            elif callable(raw):
                replacement = make(name, raw)
            else:
                self.absent.append(name)
                continue
            setattr(owner, leaf, replacement)
            self._installed.append((owner, leaf, raw))

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._installed):
            setattr(owner, leaf, raw)
        self._installed.clear()

    def to_jsonable(self) -> dict:
        return {
            "absent": sorted(set(self.absent)),
            "hot": {str(k): v for k, v in self.hot.items()},
            "spans": self.spans,
        }


class Summary:
    """Per-name totals of one traced run, read from ``Tracer.to_jsonable()`` data."""

    def __init__(self, data: dict) -> None:
        self.spans = data["spans"]
        self.absent = set(data.get("absent", ()))
        self.durations: dict[str, list[float]] = {}
        for name, start, end, _ in self.spans:
            self.durations.setdefault(name, []).append(end - start)
        self.hot_calls: dict[str, int] = {}
        self.hot_seconds: dict[str, float] = {}
        self.histograms: dict[str, dict[int, int]] = {}
        self.self_seconds: dict[str, float] = {}
        child_seconds: dict[int, float] = {}
        for name, start, end, parent in self.spans:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + (end - start)
        for span_key, per_name in data["hot"].items():
            span_index = int(span_key)
            for name, (count, total, histogram) in per_name.items():
                self.hot_calls[name] = self.hot_calls.get(name, 0) + count
                self.hot_seconds[name] = self.hot_seconds.get(name, 0.0) + total
                merged = self.histograms.setdefault(name, {})
                for bucket, n in histogram.items():
                    merged[int(bucket)] = merged.get(int(bucket), 0) + n
                child_seconds[span_index] = child_seconds.get(span_index, 0.0) + total
        for index, (name, start, end, _) in enumerate(self.spans):
            if name.startswith("cli."):
                own = (end - start) - child_seconds.get(index, 0.0)
                self.self_seconds[name] = self.self_seconds.get(name, 0.0) + own

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ())) + self.hot_calls.get(name, 0)

    def seconds(self, name: str) -> float:
        return sum(self.durations.get(name, ())) + self.hot_seconds.get(name, 0.0)

    def hot_percentile_us(self, name: str, q: float) -> float:
        """Percentile of a hot call's latency, read from its histogram."""
        histogram = self.histograms.get(name)
        if not histogram:
            return 0.0
        total = sum(histogram.values())
        rank = max(1, math.ceil(q * total))
        seen = 0
        for bucket in sorted(histogram):
            seen += histogram[bucket]
            if seen >= rank:
                return bucket_value_us(bucket)
        return 0.0


def main(argv: list[str]) -> int:
    out_path, separator, *stage_argv = argv
    if separator != "--" or not stage_argv:
        raise SystemExit("usage: tracer.py OUT.json -- <refsynth subcommand and arguments>")
    tracer = Tracer()
    tracer.install(CLI_TARGETS)
    cli = importlib.import_module("refsynth.cli")
    stage = tracer.open(f"cli.{stage_argv[0]}")
    try:
        code = cli.main(stage_argv)
    finally:
        tracer.close(stage)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_jsonable(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
