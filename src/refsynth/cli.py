"""Command-line entry points for the full synthesis and evaluation pipeline.

Subcommands cover each stage: ``generate`` turns a scene-graph corpus into
referring expressions, ``distract`` attaches controlled distractor images,
``split`` partitions task instances by image, ``stats`` summarizes a
dataset, ``eval`` scores models under the multi-image protocol,
``mine-demo`` exercises the hard-negative sampler and losses, and
``schema-check`` validates a corpus file.

Exit codes: 0 on success, 2 for configuration problems, 3 for malformed
data, 4 when a stage produces nothing.  Logs go to stderr; every command
prints a one-object JSON summary to stdout.  Records are written as they
are produced, and a command that fails removes the files it was writing.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import functools
import gc
import itertools
import json
import logging
import os
import shlex
import sys
import tempfile
from collections import Counter, deque
from typing import IO, Callable, Iterator, Sequence, TypeVar

from .balance import compute_stats, format_stats_table, is_spatial_only, relation_weights, split
from .config import load_config
from .distractor import InstanceReader, TaskInstance, find_distractors, instance_line, missing_counts
from .errors import ConfigError, DataError, EmptyCorpus, EmptyInput, EmptyResult
from .evaluation import (
    ConstantScorer,
    FileScorer,
    HashRandomScorer,
    OracleScorer,
    Setting,
    SubprocessScorer,
    evaluate,
    format_report,
)
from .expression import (
    ExpressionRecord,
    GenerationConfig,
    default_attribute_lexicon,
    default_templates,
    generate,
    load_attribute_lexicon,
    load_templates,
)
from .reasoning import match
from .scene_graph import (
    Corpus,
    SceneGraph,
    SynonymTable,
    load_corpus_path,
    load_synonyms,
    target_exclusion_reason,
)
from .util import derive_rng, hash_uniform, read_jsonl

log = logging.getLogger("refsynth")
T = TypeVar("T")


def _setup_logging(verbose: bool) -> None:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _print_summary(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


@contextlib.contextmanager
def _outputs(*paths: str | None) -> Iterator[tuple[IO[str] | None, ...]]:
    """Open each path for writing (``None`` for a path that is ``None``).

    Every command writes its records through this, one at a time as they
    are produced.  If the body raises, each file opened here is closed and
    removed, so a failed command leaves no partial or stale output.
    """
    with contextlib.ExitStack() as stack:
        handles: list[IO[str] | None] = []
        try:
            for path in paths:
                handles.append(None if path is None else stack.enter_context(open(path, "w", encoding="utf-8")))
            yield tuple(handles)
        except BaseException:
            stack.close()
            for path, handle in zip(paths, handles):
                if handle is not None:
                    with contextlib.suppress(OSError):
                        os.remove(path)
            raise


@contextlib.contextmanager
def _naming(path: str) -> Iterator[None]:
    """Raise a :class:`DataError` of the body that does not name ``path`` again, naming it."""
    try:
        yield
    except DataError as exc:
        if path in str(exc):
            raise
        raise type(exc)(f"{path}: {exc}") from exc


def _load(path: str | None, loader: Callable[[IO], T], default: Callable[[], T] | None = None) -> T:
    """``loader`` over the file at ``path``, read as bytes; ``default()`` when no path is given."""
    if path is None:
        return default()
    with open(path, "rb") as handle, _naming(path):
        return loader(handle)


def _load_corpus(args: argparse.Namespace, synonyms: SynonymTable | None = None) -> Corpus:
    """The ``--corpus`` file, canonicalized through ``synonyms`` or else the ``--synonyms`` table."""
    if synonyms is None:
        synonyms = _load(args.synonyms, load_synonyms, SynonymTable.empty)
    with _naming(args.corpus):
        return load_corpus_path(args.corpus, synonyms)


# Images per generate task.  Small runs keep the parent's writes overlapped
# with the workers' generation and hold only a few runs' lines in memory.
RUN_IMAGES = 4


@dataclasses.dataclass(frozen=True)
class _GenerateJob:
    """Everything ``generate`` needs to turn a run of images into output lines."""

    graphs: Sequence[SceneGraph]
    targets: Sequence[tuple[str, ...]]
    gen_config: GenerationConfig
    seed: int
    drop_spatial_only: bool

    def lines(self, start: int, stop: int) -> tuple[str, Counter, int]:
        """Images ``start:stop``: the JSONL text of their kept expressions,
        the count per form, and the number of spatial-only trees dropped.

        Each target gets a stream derived from (seed, image, target), so the
        text does not depend on how images are spread across processes.
        Both the serial and the pooled path produce their output here.
        """
        lines: list[str] = []
        per_form: Counter = Counter()
        dropped = 0
        for graph, targets in zip(self.graphs[start:stop], self.targets[start:stop]):
            for target in targets:
                for record in generate(graph, target, self.gen_config, derive_rng(self.seed, graph.image_id, target)):
                    if self.drop_spatial_only and is_spatial_only(record.tree):
                        dropped += 1
                        continue
                    lines.append(json.dumps(record.to_jsonable(), sort_keys=True) + "\n")
                    per_form[record.form.value] += 1
        return "".join(lines), per_form, dropped


_job: _GenerateJob | None = None  # a pool worker's job, set once by its initializer


def _adopt_job(job: _GenerateJob) -> None:
    global _job
    _job = job


def _job_lines(start: int, stop: int) -> tuple[str, Counter, int]:
    return _job.lines(start, stop)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _generated_runs(job: _GenerateJob, workers: int) -> Iterator[tuple[str, Counter, int]]:
    """``job.lines`` of each run of ``RUN_IMAGES`` images, in corpus order.

    With more than one run and more than one worker, the runs go to a
    process pool of ``min(workers, runs, usable CPUs)`` processes, which
    get the job once, through their initializer (inherited under ``fork``,
    pickled once per worker under ``spawn``).  At most two runs per process
    are outstanding, so the parent holds a few runs' lines, not the
    workers' whole output.  A failure cancels every run not yet started.
    """
    runs = [(start, start + RUN_IMAGES) for start in range(0, len(job.graphs), RUN_IMAGES)]
    size = min(workers, len(runs), _usable_cpus())
    if size < 2:
        yield from itertools.starmap(job.lines, runs)
        return
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=size, initializer=_adopt_job, initargs=(job,))
    pending: deque = deque()
    try:
        # Under fork every worker starts at the first submit.  Frozen objects
        # are left out of the workers' collections, so the corpus pages they
        # share with the parent stay shared.
        gc.freeze()
        try:
            pending.append(pool.submit(_job_lines, *runs[0]))
        finally:
            gc.unfreeze()
        for run in runs[1:]:
            if len(pending) == 2 * size:
                yield pending.popleft().result()
            pending.append(pool.submit(_job_lines, *run))
        while pending:
            yield pending.popleft().result()
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise
    pool.shutdown()


def cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(
        args.config,
        seed=args.seed,
        workers=args.workers,
        max_per_region=args.max_per_region,
    )
    synonyms = _load(args.synonyms, load_synonyms, SynonymTable.empty)
    lexicon = _load(args.lexicon, load_attribute_lexicon, default_attribute_lexicon)
    templates = _load(args.templates, load_templates, default_templates)
    corpus = _load_corpus(args, synonyms)

    try:
        weights = relation_weights(corpus).weights
    except EmptyCorpus:
        log.warning("corpus has no relations; predicate weighting disabled")
        weights = None

    gen_config = GenerationConfig(
        templates=templates,
        synonyms=synonyms,
        lexicon=lexicon,
        max_per_region=config.max_per_region,
        synonym_probability=config.synonym_probability,
        compose_probability=config.compose_probability,
        parse_budget=config.parse_budget,
        relation_weights=weights,
    )

    excluded = {"area": 0, "blacklist": 0}
    graphs = list(corpus.graphs.values())
    targets_per_image: list[tuple[str, ...]] = []
    blacklist = frozenset(config.category_blacklist)
    for graph in graphs:
        targets = []
        for node in graph.nodes:
            reason = target_exclusion_reason(graph, node, config.min_area_ratio, blacklist)
            if reason is None:
                targets.append(node.id)
            else:
                excluded[reason] += 1
        targets_per_image.append(tuple(targets))
    total_targets = sum(len(targets) for targets in targets_per_image)

    job = _GenerateJob(graphs, targets_per_image, gen_config, config.seed, config.drop_spatial_only)
    per_form: Counter = Counter()
    dropped_spatial = 0
    with _outputs(args.out, args.log) as (out, log_file):
        runs = _generated_runs(job, config.workers)
        with contextlib.closing(runs):
            for text, forms, dropped in runs:
                out.write(text)
                per_form.update(forms)
                dropped_spatial += dropped
        if not per_form:
            raise EmptyResult("no expressions were generated")

        report = {
            "excluded_targets": excluded,
            "expressions": sum(per_form.values()),
            "images": len(corpus.graphs),
            "out": args.out,
            "per_form": dict(per_form),
            "spatial_only_dropped": dropped_spatial,
            "targets": total_targets,
        }
        if log_file is not None:
            json.dump({"config": config.to_jsonable(), **report}, log_file, indent=2, sort_keys=True)
            log_file.write("\n")
    _print_summary(report)
    return 0


def _target_graph(corpus: Corpus, record: ExpressionRecord, images: Sequence[str]) -> SceneGraph:
    """Graph of ``images[0]``, which must hold the record's target; all ``images`` must be in the corpus."""
    where = f"expression {record.expr_id!r}"
    for image_id in images:
        if image_id not in corpus.graphs:
            raise DataError(f"{where}: image {image_id!r} is not in the corpus")
    graph = corpus.graphs[images[0]]
    if record.target_id not in graph.node_by_id:
        raise DataError(f"{where}: object {record.target_id!r} is not in image {images[0]!r}")
    return graph


def _checked_expression(corpus: Corpus, lexicon: dict[str, str], payload: object) -> ExpressionRecord:
    """Parse one expression line and check it against the corpus it claims."""
    record = ExpressionRecord.from_jsonable(payload)
    graph = _target_graph(corpus, record, (record.image_id,))
    if match(record.tree, graph, lexicon) != {record.target_id}:
        raise DataError(f"expression {record.expr_id!r}: its tree does not match exactly its target "
                        f"{record.target_id!r}")
    return record


def _checked_instance(corpus: Corpus | None, instance: TaskInstance) -> TaskInstance:
    """The instance; with a corpus, after checking every image it names."""
    if corpus is not None:
        _target_graph(corpus, instance.expression, (instance.target_image, *instance.candidate_regions))
    return instance


def _read_instances(path: str, corpus: Corpus | None = None) -> Iterator[TaskInstance]:
    """The instances of a file, through one :class:`InstanceReader`, checked against ``corpus``."""
    return read_jsonl(path, functools.partial(_checked_instance, corpus), decode=InstanceReader())


def _same_file(path: str, other: str) -> bool:
    try:
        return os.path.samefile(path, other)
    except OSError:
        return False


def cmd_distract(args: argparse.Namespace) -> int:
    config = load_config(args.config, seed=args.seed, per_type=args.per_type)
    for flag, path in (("--out", args.out), ("--log", args.log)):
        # The outputs are opened before the expressions are read, which would empty the input.
        if path is not None and _same_file(path, args.expressions):
            raise ConfigError(f"{flag} {path} is the --expressions file")
    lexicon = _load(args.lexicon, load_attribute_lexicon, default_attribute_lexicon)
    corpus = _load_corpus(args)
    expressions = read_jsonl(args.expressions, functools.partial(_checked_expression, corpus, lexicon))

    written = discarded = 0
    scans: dict = {}  # tree -> slots; sound because every record matches exactly its target
    region_json: dict = {}
    with _outputs(args.out, args.log) as (out, log_file):
        # The log is json.dump(..., indent=2, sort_keys=True) of the report
        # plus "discard_details", which sorts first, so the details are
        # written as they are found and the report follows them.
        if log_file is not None:
            log_file.write('{\n  "discard_details": [')
        for record in expressions:
            instance = find_distractors(corpus, record, config.per_type, lexicon, scans)
            if instance is not None:
                out.write(instance_line(instance, region_json) + "\n")
                written += 1
                continue
            missing = missing_counts(corpus, record, config.per_type, lexicon, scans)
            if log_file is not None:
                detail = {"expr_id": record.expr_id, "missing": {t.value: n for t, n in missing.items() if n}}
                encoded = json.dumps(detail, indent=2, sort_keys=True).replace("\n", "\n    ")
                log_file.write(("," if discarded else "") + "\n    " + encoded)
            discarded += 1
        if not written + discarded:
            raise EmptyInput(f"no expressions in {args.expressions}")
        if not written:
            raise EmptyResult("no expression found a full distractor set")

        report = {
            "discarded": discarded,
            "expressions": written + discarded,
            "instances": written,
            "out": args.out,
            "per_type": config.per_type,
        }
        if log_file is not None:
            rest = json.dumps(report, indent=2, sort_keys=True)[len("{"):]
            log_file.write(("\n  ]," if discarded else "],") + rest + "\n")
    _print_summary(report)
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    ratios = None
    if args.ratios:
        try:
            parts = tuple(float(x) for x in args.ratios.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --ratios value {args.ratios!r}") from exc
        ratios = parts
    config = load_config(args.config, seed=args.seed, split_ratios=ratios)
    names = ("train", "val", "test")
    os.makedirs(args.out_dir, exist_ok=True)
    # Each line is parsed and its normalized form spooled, keyed by its
    # target image, before any part is opened, so a bad line leaves no part
    # behind; only the image ids and one region list per image stay in memory.
    region_json: dict = {}
    with tempfile.TemporaryFile("w+", encoding="utf-8", dir=args.out_dir) as spool:
        images: set[str] = set()
        for instance in _read_instances(args.instances):
            images.add(instance.target_image)
            line = instance_line(instance, region_json)
            spool.write(f"{json.dumps(instance.target_image)}\t{line}\n")
        if not images:
            raise EmptyInput(f"no instances in {args.instances}")
        part_of = split(images, config.split_ratios, config.seed)

        spool.seek(0)
        instances = [0, 0, 0]
        with _outputs(*(os.path.join(args.out_dir, f"{name}.jsonl") for name in names)) as parts:
            for entry in spool:
                image_id, _, line = entry.partition("\t")
                part = part_of[json.loads(image_id)]
                parts[part].write(line)
                instances[part] += 1

    report: dict = {"out_dir": args.out_dir, "ratios": list(config.split_ratios), "seed": config.seed}
    image_counts = Counter(part_of.values())
    for part, name in enumerate(names):
        report[name] = {"images": image_counts[part], "instances": instances[part]}
    _print_summary(report)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.top_k < 0:
        raise ConfigError(f"--top-k must be at least 0, got {args.top_k}")
    corpus = _load_corpus(args) if args.corpus else None
    expressions = read_jsonl(args.expressions, ExpressionRecord.from_jsonable) if args.expressions else ()
    instances = _read_instances(args.instances, corpus) if args.instances else ()
    try:
        stats = compute_stats(corpus, expressions, instances, top_k=args.top_k)
    except EmptyInput as exc:
        named = ", ".join(path for path in (args.corpus, args.expressions, args.instances) if path)
        raise EmptyInput(f"{exc} in {named}" if named else str(exc)) from None
    if args.json:
        _print_summary(stats.to_jsonable())
    else:
        print(format_stats_table(stats))
    return 0


def _build_scorer(args: argparse.Namespace, corpus, lexicon) -> contextlib.AbstractContextManager:
    """The chosen scorer, as a context manager that yields it."""
    sources = [s for s in (args.scorer, args.scores_file, args.command) if s]
    if len(sources) > 1:
        raise ConfigError("choose one of --scorer, --scores-file, --command")
    if args.scores_file:
        return contextlib.nullcontext(_load(args.scores_file, FileScorer.load))
    if args.command:
        return SubprocessScorer(shlex.split(args.command))
    name = args.scorer or "oracle"
    if name == "oracle":
        if corpus is None:
            raise ConfigError("the oracle scorer needs --corpus")
        return contextlib.nullcontext(OracleScorer(corpus, lexicon))
    if name == "constant":
        return contextlib.nullcontext(ConstantScorer())
    if name == "hash-random":
        return contextlib.nullcontext(HashRandomScorer(args.seed or 0))
    raise ConfigError(f"unknown scorer {name!r}")


def cmd_eval(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args) if args.corpus else None
    lexicon = _load(args.lexicon, load_attribute_lexicon, default_attribute_lexicon)
    settings = tuple(Setting(s) for s in args.settings) if args.settings else tuple(Setting)
    instances = _read_instances(args.instances, corpus)
    with _build_scorer(args, corpus, lexicon) as scorer:
        try:
            report = evaluate(instances, scorer, settings)
        except EmptyInput:
            raise EmptyInput(f"no instances in {args.instances}") from None

    if args.json:
        _print_summary(report.to_jsonable())
    else:
        print(format_report(report))
    return 0


def cmd_mine_demo(args: argparse.Namespace) -> int:
    # Imported here so that no other subcommand pays for loading numpy.
    from .mining import (
        build_sampling_table,
        mine_loss,
        rank_loss,
        sample_negatives,
        should_refresh,
        total_loss,
    )
    from .synthgen import embeddings_for_corpus, make_embeddings

    for flag in ("iterations", "regions", "dim"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    config = load_config(args.config, seed=args.seed, margin=args.margin)
    if args.corpus:
        embeddings = embeddings_for_corpus(_load_corpus(args), config.seed, dim=args.dim)
    else:
        embeddings = make_embeddings(
            config.seed, count=args.regions, dim=args.dim, category_count=max(2, args.regions // 16)
        )
    table = build_sampling_table(embeddings)
    first = table.module_names[0]
    usable = sorted(
        r for r, (category, _) in table.index.items()
        if len(table.blocks[(category, first)].region_ids) >= 2
    )
    if not usable:
        raise EmptyResult("every region is alone in its category; nothing to mine")

    rng = derive_rng(config.seed, "mine-demo")
    refreshes = 0
    sums = {"mine": 0.0, "rank": 0.0, "total": 0.0}
    for iteration in range(args.iterations):
        if should_refresh(iteration, config.refresh_interval):
            table = build_sampling_table(embeddings, epoch=table.epoch + 1)
            refreshes += 1
        region = usable[iteration % len(usable)]
        negatives = sample_negatives(table, rng, region)
        tag = str(iteration)
        positive = hash_uniform(config.seed, "pos", tag, region)
        in_batch_region = hash_uniform(config.seed, "neg-region", tag, region)
        in_batch_expression = hash_uniform(config.seed, "neg-expr", tag, region)
        mined_regions = {
            m: hash_uniform(config.seed, "mined-region", tag, m, negatives[m])
            for m in table.module_names
        }
        mined_expressions = {
            m: hash_uniform(config.seed, "mined-expr", tag, m, negatives[m])
            for m in table.module_names
        }
        rank = rank_loss(positive, in_batch_region, in_batch_expression, config.margin)
        mined = mine_loss(positive, mined_regions, mined_expressions, config.margin)
        sums["rank"] += rank
        sums["mine"] += mined
        sums["total"] += total_loss(rank, mined, config.mine_weight)

    _print_summary(
        {
            "epoch": table.epoch,
            "iterations": args.iterations,
            "margin": config.margin,
            "mean_mine_loss": sums["mine"] / args.iterations,
            "mean_rank_loss": sums["rank"] / args.iterations,
            "mean_total_loss": sums["total"] / args.iterations,
            "refreshes": refreshes,
            "regions": len(embeddings),
        }
    )
    return 0


def cmd_schema_check(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    _print_summary(
        {
            "categories": len(corpus.images_by_category),
            "images": len(corpus.graphs),
            "ok": True,
            "regions": sum(len(g.nodes) for g in corpus.graphs.values()),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refsynth",
        description="Synthesize referring expressions and evaluate region scorers.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config: bool = True, synonyms: bool = True) -> None:
        if config:
            p.add_argument("--config", help="JSON config file")
            p.add_argument("--seed", type=int, help="overrides the config seed")
        if synonyms:
            p.add_argument("--synonyms", help="synonym table JSON")

    p = sub.add_parser("generate", help="synthesize expressions from a corpus")
    common(p)
    p.add_argument("--corpus", required=True, help="scene-graph corpus JSON")
    p.add_argument("--out", required=True, help="output expressions JSONL")
    p.add_argument("--lexicon", help="attribute-category lexicon JSON")
    p.add_argument("--templates", help="surface template JSON")
    p.add_argument("--workers", type=int, help="process count (images are the unit of work)")
    p.add_argument("--max-per-region", type=int, dest="max_per_region")
    p.add_argument("--log", help="write a generation log JSON here")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("distract", help="attach distractor images to expressions")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--expressions", required=True, help="expressions JSONL from generate")
    p.add_argument("--out", required=True, help="output task instances JSONL")
    p.add_argument("--lexicon", help="attribute-category lexicon JSON")
    p.add_argument("--per-type", type=int, dest="per_type", help="distractors per type")
    p.add_argument("--log", help="write a discard log JSON here")
    p.set_defaults(func=cmd_distract)

    p = sub.add_parser("split", help="partition instances by target image")
    common(p, synonyms=False)
    p.add_argument("--instances", required=True, help="task instances JSONL")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--ratios", help="three comma-separated fractions summing to 1")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("stats", help="summarize a corpus and its derived data")
    common(p, config=False)
    p.add_argument("--corpus")
    p.add_argument("--expressions")
    p.add_argument("--instances")
    p.add_argument("--top-k", type=int, default=20, dest="top_k")
    p.add_argument("--json", action="store_true", help="JSON instead of a table")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="score a model under the selection protocol")
    common(p, config=False)
    p.add_argument("--seed", type=int, help="hash-random scorer seed (default 0)")
    p.add_argument("--instances", required=True)
    p.add_argument("--corpus", help="needed by the oracle scorer")
    p.add_argument("--lexicon")
    p.add_argument("--scorer", choices=("oracle", "constant", "hash-random"))
    p.add_argument("--scores-file", dest="scores_file", help="precomputed scores JSON")
    p.add_argument("--command", help="scorer subprocess, one JSON line per query")
    p.add_argument("--settings", nargs="+", choices=[s.value for s in Setting])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mine-demo", help="run the hard-negative sampler and losses")
    common(p)
    p.add_argument("--corpus", help="embed this corpus; omitted means synthetic regions")
    p.add_argument("--regions", type=int, default=256, help="synthetic region count")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--margin", type=float)
    p.set_defaults(func=cmd_mine_demo)

    p = sub.add_parser("schema-check", help="validate a corpus file")
    common(p, config=False)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_schema_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args.verbose)
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except EmptyResult as exc:
        log.error("%s", exc)
        return 4
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
