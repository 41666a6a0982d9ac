"""The three workloads of the pipeline benchmark, their checks and metrics.

Every workload runs the same closed loop from one process: one client
issues the next operation only when the previous one has finished.  An
iteration is the whole pipeline, in the order users run it:

    generate, generate --workers 2, distract    (the *build* part)
    split, stats --json, eval x3                (the *consume* part)
    sampling-table builds, each followed by draws         (the *mine* part)

CLI stages run as ``python -m refsynth.cli <stage>`` child processes; the
mine part runs in ``bench/miner.py``, a child that calls ``refsynth.mining``
directly, as a training loop does.  Every operation's peak RSS is thus its
own process's.

``BENCHMARK.json`` declares one list of end-to-end metrics and every run
reports all of them, so every workload runs every part: each workload puts
its weight on its own part and runs the other two on small probe inputs
(see ``SIZES``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing
from refsynth import synthgen
from refsynth.distractor import TaskInstance
from refsynth.expression import default_attribute_lexicon
from refsynth.scene_graph import load_corpus_path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload."""

    build_images: int  # corpus for generate and distract
    consume_images: int  # corpus that distract turns into the instances below
    # Leading instances that split, stats and eval read.  How many instances a
    # corpus yields varies by seed (104 to 161 at 25 images, 454 to 522 at 60),
    # and with it the work of every consume stage; a fixed count keeps that out
    # of the spread between seeds.
    consume_instances: int
    subprocess_instances: int  # leading instances scored by the child scorer
    regions: int  # make_embeddings regions, spread over `categories`
    categories: int
    large_regions: int  # a disjoint block in 2 categories
    builds: int  # table builds per request to the mine child
    draws: int  # sample_negatives draws after each table build
    # One mine request after every CLI stage instead of one per iteration, so
    # that a probe's few, short builds and draws sample the whole run.
    mine_after_each_stage: bool


SETUP_REPEATS = 3
PER_TYPE = 3  # the distract default; the instance check needs it
STAGE_TIMEOUT_S = 60  # stages take seconds; a hung one must not outlast the run
# The traced run's peak RSS may exceed the untraced run's by at most this factor.
TRACE_RSS_FACTOR = 1.5
# Distract per-expression growth is measured against a quarter-size corpus
# only when that corpus is still this large.
GROWTH_MIN_IMAGES = 25

_PROBE = dict(regions=1200, categories=7, large_regions=600, builds=1, draws=500, mine_after_each_stage=True)
SIZES = {
    "build": Sizes(build_images=160, consume_images=30, consume_instances=100, subprocess_instances=10, **_PROBE),
    "consume": Sizes(build_images=25, consume_images=60, consume_instances=440, subprocess_instances=60, **_PROBE),
    "mine": Sizes(build_images=25, consume_images=30, consume_instances=100, subprocess_instances=10,
                  regions=30_000, categories=180, large_regions=3000, builds=3, draws=3000,
                  mine_after_each_stage=False),
}
TINY = Sizes(build_images=40, consume_images=40, consume_instances=120, subprocess_instances=30,
             regions=600, categories=4, large_regions=100, builds=3, draws=200, mine_after_each_stage=False)

CLI_OPS = ("generate", "generate_w2", "distract", "split", "stats",
           "eval_hash", "eval_oracle", "eval_subprocess")
UNTRACED_ONLY = ("generate_w2",)  # the parallel stage is measured end to end only
# `eval --command` trades one line with its scorer child per region, thousands
# of round trips per stage.  Across two CPUs one can wake an idle virtual
# CPU; on a shared host the stage ran up to three times slower for
# minutes at a time while CPU-bound stages kept their pace.  On one CPU a
# round trip is a plain switch between the two processes.
ONE_CPU = ("eval_subprocess",)

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("generate_s", "s"),
    ("generate_w2_s", "s"),
    ("distract_s", "s"),
    ("split_s", "s"),
    ("stats_s", "s"),
    ("eval_hash_s", "s"),
    ("eval_oracle_s", "s"),
    ("eval_subprocess_s", "s"),
    ("table_build_s", "s"),
    ("draw_p50_us", "us"),
    ("draw_p99_us", "us"),
)

STAGES = ("generate", "distract", "split", "stats", "eval")
PER_LAYER = (
    ("scene_graph.load_corpus.s", "s"),
    ("synthgen.make_corpus_payload.s", "s"),
    ("synthgen.make_embeddings.s", "s"),
    ("reasoning.match.gen.calls", "count"),
    ("reasoning.match.gen.s", "s"),
    ("reasoning.match.distract.calls", "count"),
    ("reasoning.match.distract.s", "s"),
    ("reasoning.match.distract.mean_us", "us"),
    ("reasoning.match.oracle.calls", "count"),
    ("reasoning.match.oracle.s", "s"),
    ("expression.generate.calls", "count"),
    ("expression.generate.s", "s"),
    ("expression.generate.records_per_call", "ratio"),
    ("expression.ExpressionRecord.from_jsonable.s", "s"),
    ("balance.relation_weights.s", "s"),
    ("balance.split.s", "s"),
    ("balance.compute_stats.s", "s"),
    ("distractor.find_distractors.calls", "count"),
    ("distractor.find_distractors.s", "s"),
    ("distractor.find_distractors.p50_us", "us"),
    ("distractor.find_distractors.p95_us", "us"),
    ("distractor.find_distractors.max_us", "us"),
    ("distractor.missing_counts.calls", "count"),
    ("distractor.missing_counts.s", "s"),
    ("distractor.found_ratio", "ratio"),
    ("distractor.scan_depth.p50", "images"),
    ("distractor.scan_depth.p95", "images"),
    ("distractor.scan_depth.max", "images"),
    ("distractor.per_expr_growth_4x", "ratio"),
    ("distractor.TaskInstance.to_jsonable.s", "s"),
    ("distractor.TaskInstance.from_jsonable.calls", "count"),
    ("distractor.TaskInstance.from_jsonable.s", "s"),
    ("evaluation.evaluate.hash.s", "s"),
    ("evaluation.evaluate.oracle.s", "s"),
    ("evaluation.evaluate.subprocess.s", "s"),
    ("evaluation.select_region.calls", "count"),
    ("evaluation.select_region.s", "s"),
    ("evaluation.score.calls", "count"),
    ("evaluation.score.distinct_pairs", "count"),
    ("evaluation.score.calls_per_pair", "ratio"),
    ("evaluation.score.hash.s", "s"),
    ("evaluation.score.oracle.s", "s"),
    ("evaluation.subprocess.roundtrip_p50_us", "us"),
    ("evaluation.subprocess.roundtrip_p99_us", "us"),
    ("evaluation.subprocess.wait_s", "s"),
    ("mining.build_sampling_table.calls", "count"),
    ("mining.build_sampling_table.s", "s"),
    ("mining.table_rows_mb", "MB"),
    ("mining.sample_negatives.small.p50_us", "us"),
    ("mining.sample_negatives.large.p50_us", "us"),
    *((f"cli.{stage}.self_s", "s") for stage in STAGES),
    *((f"cli.{stage}.peak_rss_mb", "MB") for stage in STAGES),
    *((f"trace.{stage}.overhead_pct", "%") for stage in (*STAGES, "mine")),
    ("trace.spans", "count"),
    ("trace.peak_rss_ratio", "ratio"),
)

# A per-layer metric reads the traced function its name starts with, and is
# reported absent with it; these read one more.
_ALSO_READS = {
    "distractor.find_distractors": ("distractor.per_expr_growth_4x",),
    "evaluation.score": tuple(n for n, _ in PER_LAYER if n.startswith("evaluation.subprocess.")),
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class SetupError(Exception):
    """The benchmark could not build its inputs."""


@dataclass
class Op:
    """One timed operation and what became of it."""

    name: str
    iteration: int
    traced: bool = False
    seconds: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 1
    failed: int = 0
    digest: str | None = None
    failure: str | None = None
    summary: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    trace: "tracing.Summary | None" = None


class Workload:
    """One benchmark run: set up, run the closed loop, check, report."""

    def __init__(self, name: str, seed: int, seconds: int, sizes: Sizes, fault: str | None) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.fault = fault
        self.work = OUT / f"work-{name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.ops: list[Op] = []
        self.lexicon = default_attribute_lexicon()
        self.tracer = tracing.Tracer()
        self.setup_seconds: list[float] = []
        self.setup_digests: dict[str, str] = {}
        self.build_seconds: list[float] = []
        self.draw_seconds: list[float] = []
        self.fingerprint: dict = {}
        self.setup_summary: dict[str, dict] = {}
        self.miner: subprocess.Popen | None = None
        self.miner_setup_trace = tracing.Summary({"spans": [], "hot": {}})
        self.absent: list[str] = []
        self.not_measured: list[str] = []
        self.check_seconds = 0.0
        self._corpora: dict[str, object] = {}

    # ---------------------------------------------------------------- setup

    def paths(self) -> dict[str, Path]:
        w = self.work
        return {
            "build_corpus": w / "build_corpus.json",
            "consume_corpus": w / "consume_corpus.json",
            "consume_expressions": w / "consume_expressions.jsonl",
            "consume_all": w / "consume_all.jsonl",
            "consume_instances": w / "consume_instances.jsonl",
            "consume_subset": w / "consume_subset.jsonl",
            "quarter_corpus": w / "quarter_corpus.json",
        }

    def setup(self, traced: bool = False) -> None:
        """Corpora, the consume instances and the miner's embeddings, all from the seed."""
        p = self.paths()
        s = self.sizes
        self._write_corpus(p["build_corpus"], self.seed, s.build_images)
        self._write_corpus(p["consume_corpus"], self.seed + 1, s.consume_images)
        for stage, args in (
            ("generate", ["--corpus", p["consume_corpus"], "--out", p["consume_expressions"]]),
            ("distract", ["--corpus", p["consume_corpus"], "--expressions", p["consume_expressions"],
                          "--out", p["consume_all"]]),
        ):
            code, _, _, out = self._child(self._cli(stage, args), self.work / f"setup_{stage}")
            if code != 0:
                raise SetupError(f"setup {stage} exited {code}: {self._stderr_tail(self.work / f'setup_{stage}')}")
            self.setup_summary[stage] = json.loads(out)
        lines = checks.read_lines(p["consume_all"])
        for name, count in (("consume_instances", s.consume_instances), ("consume_subset", s.subprocess_instances)):
            with open(p[name], "w", encoding="utf-8") as sink:
                sink.writelines(line + "\n" for line in lines[:count])
        self.start_miner(traced)

    def _write_corpus(self, path: Path, seed: int, images: int) -> None:
        payload = synthgen.make_corpus_payload(seed, images)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def run_setup(self, repeats: int, traced: bool = False) -> None:
        for _ in range(repeats):
            start = perf_counter()
            self.setup(traced)
            self.setup_seconds.append(perf_counter() - start)
            digests = {k: sha256_file(v) for k, v in self.paths().items() if v.exists() and k != "quarter_corpus"}
            if self.setup_digests and digests != self.setup_digests:
                raise SetupError("set-up is not deterministic: its outputs differ between repeats")
            self.setup_digests = digests

    # ---------------------------------------------------------------- miner

    def start_miner(self, traced: bool) -> None:
        """Start the mine child (ending the previous one) and wait until it is ready."""
        self.stop_miner()
        s = self.sizes
        argv = [sys.executable, str(BENCH / "miner.py"), "--seed", str(self.seed), "--regions", str(s.regions),
                "--categories", str(s.categories), "--large", str(s.large_regions), "--builds", str(s.builds),
                "--draws", str(s.draws)]
        if traced:
            argv.append("--trace")
        with open(self.work / "miner.err", "ab") as err:
            self.miner = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                          env=self.env, cwd=ROOT, text=True)
        ready = self._miner_reply()
        if ready is None:
            raise SetupError(f"the mine child did not start: {self._stderr_tail(self.work / 'miner')}")
        self.fingerprint["mine"] = ready["fingerprint"]
        if "trace" in ready:
            self.miner_setup_trace = tracing.Summary(ready["trace"])

    def _miner_reply(self) -> dict | None:
        """The mine child's next line, or None when it died or ran past the stage timeout."""
        timer = threading.Timer(STAGE_TIMEOUT_S, self.miner.kill)
        timer.start()
        try:
            line = self.miner.stdout.readline()
        finally:
            timer.cancel()
        return json.loads(line) if line else None

    def stop_miner(self) -> None:
        if self.miner is None:
            return
        try:
            self.miner.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.miner.wait(timeout=STAGE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.miner.kill()
            self.miner.wait()
        self.miner.stdout.close()
        self.miner = None

    # ------------------------------------------------------------ children

    def _cli(self, stage: str, args) -> list[str]:
        return [sys.executable, "-m", "refsynth.cli", stage, *map(str, args)]

    def _child(self, argv: list[str], stem: Path, one_cpu: bool = False) -> tuple[int, float, float, bytes]:
        """Run one child to completion: exit code, wall seconds, peak RSS MB, stdout.

        Peak RSS comes from the child's own rusage (``os.wait4``).  For a
        child with worker processes it is the largest of the child and the
        workers it waited for, not their sum.  With ``one_cpu`` the child
        and everything it starts run on the lowest CPU this process may use.
        """
        out_path = stem.with_suffix(".out")
        err_path = stem.with_suffix(".err")
        cpus = os.sched_getaffinity(0)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            if one_cpu:  # the child inherits the mask it is started with
                os.sched_setaffinity(0, {min(cpus)})
            try:
                start = perf_counter()
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            finally:
                if one_cpu:
                    os.sched_setaffinity(0, cpus)
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            reaped = False
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                timer.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, out_path.read_bytes()

    @staticmethod
    def _stderr_tail(stem: Path) -> str:
        text = stem.with_suffix(".err").read_text(encoding="utf-8", errors="replace").strip()
        return text.splitlines()[-1] if text else "(no stderr)"

    # ----------------------------------------------------------------- ops

    def stage_args(self, op: str, out: Path, corpus: Path | None = None,
                   expressions: Path | None = None) -> tuple[str, list, dict]:
        p = self.paths()
        corpus = corpus or p["build_corpus"]
        if op in ("generate", "generate_w2"):
            target = out / ("expressions_w2.jsonl" if op == "generate_w2" else "expressions.jsonl")
            workers = ["--workers", "2"] if op == "generate_w2" else []
            return "generate", ["--corpus", corpus, "--out", target, *workers], {"out": target, "corpus": corpus}
        if op == "distract":
            expressions = expressions or out / "expressions.jsonl"
            target = out / "instances.jsonl"
            return "distract", ["--corpus", corpus, "--expressions", expressions, "--out", target], {
                "out": target, "corpus": corpus, "expressions": expressions}
        if op == "split":
            return "split", ["--instances", p["consume_instances"], "--out-dir", out / "split"], {"out": out / "split"}
        if op == "stats":
            return "stats", ["--json", "--corpus", p["consume_corpus"], "--expressions",
                             p["consume_expressions"], "--instances", p["consume_instances"]], {}
        if op == "eval_hash":
            return "eval", ["--json", "--scorer", "hash-random", "--instances", p["consume_instances"]], {}
        if op == "eval_oracle":
            return "eval", ["--json", "--scorer", "oracle", "--corpus", p["consume_corpus"],
                            "--instances", p["consume_instances"]], {}
        if op == "eval_subprocess":
            scorer = [sys.executable, str(BENCH / "scorer.py"), "--seed", "0"]
            if self.fault == "wrong-score" and out.name == "it0":
                scorer.append("--fault")
            return "eval", ["--json", "--instances", p["consume_subset"], "--command", shlex.join(scorer)], {}
        raise ValueError(op)

    def run_stage(self, op_name: str, iteration: int, traced: bool, **inputs) -> Op:
        out = self.work / f"it{iteration}"
        out.mkdir(parents=True, exist_ok=True)
        stage, args, paths = self.stage_args(op_name.split(":")[0], out, **inputs)
        stem = out / op_name.replace(":", "_")
        argv = self._cli(stage, args)
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(stem.with_suffix(".trace.json")), "--", stage,
                    *map(str, args)]
        code, seconds, rss, stdout = self._child(argv, stem, one_cpu=op_name in ONE_CPU)
        op = Op(op_name, iteration, traced, seconds, rss, paths=paths)
        if code != 0:
            op.failure = f"exit {code}: {self._stderr_tail(stem)}"
        else:
            try:
                op.summary = json.loads(stdout)
            except json.JSONDecodeError:
                op.failure = "stdout is not a JSON summary"
            try:
                if self.fault == "flip-instances" and op_name == "distract" and iteration == 0:
                    flip_middle_byte(paths["out"])
                op.digest = self._digest(paths, stdout)
            except OSError as exc:
                op.failure = f"output missing: {exc}"
        if traced and stem.with_suffix(".trace.json").exists():
            with open(stem.with_suffix(".trace.json"), "r", encoding="utf-8") as handle:
                op.trace = tracing.Summary(json.load(handle))
        self.ops.append(op)
        return op

    @staticmethod
    def _digest(paths: dict, stdout: bytes) -> str:
        out = paths.get("out")
        if out is None:
            return hashlib.sha256(stdout).hexdigest()
        if out.is_dir():
            parts = [f"{name}:{sha256_file(out / f'{name}.jsonl')}" for name in ("train", "val", "test")]
            return hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return sha256_file(out)

    def run_mine(self, iteration: int, traced: bool) -> Op:
        """One request to the mine child: table builds, each followed by draws."""
        op = Op("mine", iteration, traced)
        start = perf_counter()
        try:
            self.miner.stdin.write(json.dumps({"traced": traced}) + "\n")
            self.miner.stdin.flush()
            reply = self._miner_reply()
        except BrokenPipeError:
            reply = None
        op.seconds = perf_counter() - start
        if reply is None:
            op.failure = f"the mine child died: {self._stderr_tail(self.work / 'miner')}"
            self.ops.append(op)
            return op
        op.attempted = reply["attempted"]
        op.failed = len(reply["failures"])
        op.failure = reply["failures"][0] if reply["failures"] else None
        op.rss_mb = reply["rss_mb"]
        op.digest = reply["digest"]
        op.summary = {"table_rows_mb": reply["table_rows_mb"], "large": reply["large"]}
        if traced:
            op.trace = tracing.Summary(reply["trace"])
        else:
            self.build_seconds.extend(reply["builds"])
            self.draw_seconds.extend(reply["draws"])
        self.ops.append(op)
        return op

    @staticmethod
    def _note_failure(op: Op, message: str) -> None:
        op.failed += 1
        if op.failure is None:
            op.failure = message

    def iteration(self, k: int, traced: bool = False) -> None:
        """The whole pipeline once; a traced iteration sends one mine request."""
        interleave = self.sizes.mine_after_each_stage and not traced
        for name in CLI_OPS:
            if traced and name in UNTRACED_ONLY:
                continue
            self.run_stage(name, k, traced)
            if interleave and name != CLI_OPS[-1]:
                self.run_mine(k, traced)
        self.run_mine(k, traced)

    # ------------------------------------------------------------- running

    def run(self, trace: bool) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            if trace:
                return self._run_traced()
            return self._run_timed()
        finally:
            self.stop_miner()
            shutil.rmtree(self.work, ignore_errors=True)

    def _run_timed(self) -> dict:
        self.run_setup(SETUP_REPEATS)
        start = perf_counter()
        durations = []
        k = 0
        while True:
            t0 = perf_counter()
            self.iteration(k)
            durations.append(perf_counter() - t0)
            k += 1
            if perf_counter() - start + statistics.mean(durations) > self.seconds:
                break
        checked = perf_counter()
        self.judge()
        self.check_seconds = perf_counter() - checked
        return self.result(self.end_to_end(), k)

    def _run_traced(self) -> dict:
        self.tracer.install(tracing.SETUP_TARGETS)
        self.run_setup(1, traced=True)
        self.tracer.uninstall()
        self.iteration(0)
        self.iteration(1, traced=True)
        if self.sizes.build_images // 4 >= GROWTH_MIN_IMAGES:
            p = self.paths()
            self._write_corpus(p["quarter_corpus"], self.seed, self.sizes.build_images // 4)
            self.run_stage("generate:quarter", 2, False, corpus=p["quarter_corpus"])
            self.run_stage("distract:quarter", 2, True, corpus=p["quarter_corpus"])
        checked = perf_counter()
        self.judge()
        self.check_seconds = perf_counter() - checked
        metrics = self.per_layer()
        return self.result(metrics, 2)

    # ------------------------------------------------------------- checking

    def corpus(self, path: Path):
        if str(path) not in self._corpora:
            self._corpora[str(path)] = load_corpus_path(str(path))
        return self._corpora[str(path)]

    def judge(self) -> None:
        """Check every output; a wrong output fails the operation that wrote it.

        Each distinct output is checked once.  An output that passes but
        differs from the first correct output of the same operation fails
        too: the program must write the same bytes every time.
        """
        p = self.paths()
        self.consume_lines = checks.read_lines(p["consume_instances"])
        self.consume_instances = [TaskInstance.from_jsonable(json.loads(x)) for x in self.consume_lines]
        self.subset_instances = self.consume_instances[: self.sizes.subprocess_instances]
        self.fingerprint["consume"] = self._distract_fingerprint(
            self.corpus(p["consume_corpus"]), self.setup_summary["generate"]["expressions"],
            [TaskInstance.from_jsonable(json.loads(x)) for x in checks.read_lines(p["consume_all"])])
        self.fingerprint["consume"]["read"] = len(self.consume_lines)

        serial = {op.iteration: op for op in self.ops if op.name == "generate" and op.digest}
        for name in dict.fromkeys(op.name for op in self.ops):
            reference = None
            verdicts: dict[str, str | None] = {}
            for op in (o for o in self.ops if o.name == name):
                if op.failure is not None or op.digest is None:
                    op.failed = max(op.failed, 1)
                    continue
                if name == "generate_w2":
                    twin = serial.get(op.iteration)
                    if twin is None or twin.digest != op.digest:
                        op.failure = "differs from the serial generate output"
                        op.failed = 1
                    continue
                if op.digest not in verdicts:
                    try:
                        self.check(op)
                        verdicts[op.digest] = None
                    except Exception as exc:  # whatever a wrong output raises fails its operation
                        verdicts[op.digest] = f"{type(exc).__name__}: {exc}"
                if verdicts[op.digest] is not None:
                    op.failure = verdicts[op.digest]
                    op.failed = max(op.failed, 1)
                elif reference is None:
                    reference = op.digest
                elif op.digest != reference:
                    op.failure = "output differs from this run's first correct output"
                    op.failed = max(op.failed, 1)

    def check(self, op: Op) -> None:
        kind = op.name.split(":")[0]
        if kind == "generate":
            checks.check_expressions(str(op.paths["out"]), self.corpus(op.paths["corpus"]), self.lexicon,
                                     op.summary, self.seed)
        elif kind == "distract":
            corpus = self.corpus(op.paths["corpus"])
            expressions = {}
            for line in checks.read_lines(op.paths["expressions"]):
                payload = json.loads(line)
                expressions[payload["expr_id"]] = payload
            lines = checks.check_instances(str(op.paths["out"]), corpus, self.lexicon, expressions,
                                           op.summary, PER_TYPE, self.seed)
            if op.name == "distract" and "build" not in self.fingerprint:
                instances = [TaskInstance.from_jsonable(json.loads(x)) for x in lines]
                self.fingerprint["build"] = self._distract_fingerprint(corpus, len(expressions), instances)
                self.fingerprint["build"]["found_ratio"] = len(instances) / len(expressions)
        elif kind == "split":
            checks.check_split(str(op.paths["out"]), self.consume_lines)
        elif kind == "stats":
            checks.check_stats(op.summary, self.corpus(self.paths()["consume_corpus"]),
                               self.setup_summary["generate"]["expressions"], self.consume_instances)
        elif kind == "eval_hash":
            checks.check_hash_report(op.summary, self.consume_instances)
        elif kind == "eval_oracle":
            checks.check_oracle_report(op.summary, len(self.consume_instances))
        elif kind == "eval_subprocess":
            checks.check_subprocess_report(op.summary, self.subset_instances)

    @staticmethod
    def _distract_fingerprint(corpus, expression_count: int, instances: list) -> dict:
        """Input counts, plus the images an ascending-id scan must visit per expression.

        An instance's scan depth is the corpus position of its last
        distractor; a discarded expression scans the whole corpus.
        """
        position = {image_id: i + 1 for i, image_id in enumerate(corpus.image_ids)}
        depths = [max(position[i] for i in inst.images[1:]) for inst in instances]
        depths += [len(position)] * (expression_count - len(instances))
        return {
            "images": len(corpus.graphs),
            "objects": sum(len(g.nodes) for g in corpus.graphs.values()),
            "expressions": expression_count,
            "instances": len(instances),
            "discarded": expression_count - len(instances),
            "mean_candidates": sum(checks.full_candidates(i) for i in instances) / len(instances),
            "scan_depth_p50": percentile(depths, 50),
            "scan_depth_p95": percentile(depths, 95),
            "scan_depth_max": max(depths),
        }

    # -------------------------------------------------------------- metrics

    def end_to_end(self) -> dict[str, float]:
        values = {
            "setup_s": statistics.median(self.setup_seconds),
            "table_build_s": statistics.median(self.build_seconds) if self.build_seconds else 0.0,
            "draw_p50_us": percentile(self.draw_seconds, 50) * 1e6,
            "draw_p99_us": percentile(self.draw_seconds, 99) * 1e6,
        }
        for name in CLI_OPS:
            values[f"{name}_s"] = statistics.median(op.seconds for op in self.ops if op.name == name)
        per_iteration: dict[int, float] = {}
        for op in self.ops:
            per_iteration[op.iteration] = max(per_iteration.get(op.iteration, 0.0), op.rss_mb)
        values["peak_rss_mb"] = statistics.median(per_iteration.values())
        return {name: values[name] for name, _ in END_TO_END}

    def per_layer(self) -> dict[str, float]:
        traced = {op.name: op.trace for op in self.ops if op.traced and op.trace is not None}
        empty = tracing.Summary({"spans": [], "hot": {}})
        main = tracing.Summary(self.tracer.to_jsonable())
        mine = traced.pop("mine", empty)

        def t(op: str) -> tracing.Summary:
            return traced.get(op, empty)

        def total(name: str) -> float:
            return sum(s.seconds(name) for s in traced.values())

        def count(name: str) -> int:
            return sum(s.calls(name) for s in traced.values())

        evals = ("eval_hash", "eval_oracle", "eval_subprocess")
        m: dict[str, float] = {}
        m["scene_graph.load_corpus.s"] = total("scene_graph.load_corpus")
        m["synthgen.make_corpus_payload.s"] = main.seconds("synthgen.make_corpus_payload")
        m["synthgen.make_embeddings.s"] = self.miner_setup_trace.seconds("synthgen.make_embeddings")
        for label, op in (("gen", "generate"), ("distract", "distract"), ("oracle", "eval_oracle")):
            m[f"reasoning.match.{label}.calls"] = t(op).calls("reasoning.match")
            m[f"reasoning.match.{label}.s"] = t(op).seconds("reasoning.match")
        calls = m["reasoning.match.distract.calls"]
        m["reasoning.match.distract.mean_us"] = m["reasoning.match.distract.s"] / calls * 1e6 if calls else 0.0
        gen = t("generate")
        m["expression.generate.calls"] = gen.calls("expression.generate")
        m["expression.generate.s"] = gen.seconds("expression.generate")
        summary = next((op.summary for op in self.ops if op.name == "generate" and op.traced), {})
        records = summary.get("expressions", 0) + summary.get("spatial_only_dropped", 0)
        m["expression.generate.records_per_call"] = (
            records / m["expression.generate.calls"] if m["expression.generate.calls"] else 0.0)
        m["expression.ExpressionRecord.from_jsonable.s"] = total("expression.ExpressionRecord.from_jsonable")
        m["balance.relation_weights.s"] = total("balance.relation_weights")
        m["balance.split.s"] = total("balance.split")
        m["balance.compute_stats.s"] = total("balance.compute_stats")
        find = t("distract").durations.get("distractor.find_distractors", [])
        m["distractor.find_distractors.calls"] = len(find)
        m["distractor.find_distractors.s"] = sum(find)
        m["distractor.find_distractors.p50_us"] = percentile(find, 50) * 1e6
        m["distractor.find_distractors.p95_us"] = percentile(find, 95) * 1e6
        m["distractor.find_distractors.max_us"] = max(find, default=0.0) * 1e6
        m["distractor.missing_counts.calls"] = t("distract").calls("distractor.missing_counts")
        m["distractor.missing_counts.s"] = t("distract").seconds("distractor.missing_counts")
        build = self.fingerprint.get("build", {})
        m["distractor.found_ratio"] = build.get("found_ratio", 0.0)
        for q in ("p50", "p95", "max"):
            m[f"distractor.scan_depth.{q}"] = build.get(f"scan_depth_{q}", 0)
        m["distractor.per_expr_growth_4x"] = self._growth(t("distract"), t("distract:quarter"))
        m["distractor.TaskInstance.to_jsonable.s"] = total("distractor.TaskInstance.to_jsonable")
        m["distractor.TaskInstance.from_jsonable.calls"] = count("distractor.TaskInstance.from_jsonable")
        m["distractor.TaskInstance.from_jsonable.s"] = total("distractor.TaskInstance.from_jsonable")
        for label, op in (("hash", "eval_hash"), ("oracle", "eval_oracle"), ("subprocess", "eval_subprocess")):
            m[f"evaluation.evaluate.{label}.s"] = t(op).seconds("evaluation.evaluate")
        m["evaluation.select_region.calls"] = sum(t(op).calls("evaluation.select_region") for op in evals)
        m["evaluation.select_region.s"] = sum(t(op).seconds("evaluation.select_region") for op in evals)
        m["evaluation.score.calls"] = sum(t(op).calls("evaluation.score") for op in evals)
        pairs = sum(checks.full_candidates(i) for i in self.consume_instances) * 2 + sum(
            checks.full_candidates(i) for i in self.subset_instances)
        m["evaluation.score.distinct_pairs"] = pairs
        m["evaluation.score.calls_per_pair"] = m["evaluation.score.calls"] / pairs
        m["evaluation.score.hash.s"] = t("eval_hash").seconds("evaluation.score")
        m["evaluation.score.oracle.s"] = t("eval_oracle").seconds("evaluation.score")
        sub = t("eval_subprocess")
        m["evaluation.subprocess.roundtrip_p50_us"] = sub.hot_percentile_us("evaluation.score", 0.50)
        m["evaluation.subprocess.roundtrip_p99_us"] = sub.hot_percentile_us("evaluation.score", 0.99)
        m["evaluation.subprocess.wait_s"] = sub.seconds("evaluation.score")
        m["mining.build_sampling_table.calls"] = mine.calls("mining.build_sampling_table")
        m["mining.build_sampling_table.s"] = mine.seconds("mining.build_sampling_table")
        mine_op = next(op for op in self.ops if op.name == "mine" and op.traced)
        m["mining.table_rows_mb"] = mine_op.summary.get("table_rows_mb", 0.0)
        draws = mine.durations.get("mining.sample_negatives", [])
        flags = mine_op.summary.get("large", [])
        small = [d for d, is_large in zip(draws, flags) if not is_large]
        large = [d for d, is_large in zip(draws, flags) if is_large]
        m["mining.sample_negatives.small.p50_us"] = percentile(small, 50) * 1e6
        m["mining.sample_negatives.large.p50_us"] = percentile(large, 50) * 1e6

        untraced = {op.name: op for op in self.ops if op.iteration == 0}
        traced_ops = {op.name: op for op in self.ops if op.traced and op.iteration == 1}
        ratios = []
        for stage in STAGES:
            names = [n for n in traced_ops if n.split("_")[0] == stage]
            m[f"cli.{stage}.self_s"] = sum(traced[n].self_seconds.get(f"cli.{stage}", 0.0)
                                           for n in names if n in traced)
            m[f"cli.{stage}.peak_rss_mb"] = max((untraced[n].rss_mb for n in names), default=0.0)
            plain = sum(untraced[n].seconds for n in names)
            m[f"trace.{stage}.overhead_pct"] = (
                (sum(traced_ops[n].seconds for n in names) - plain) / plain * 100 if plain else 0.0)
            ratios += [traced_ops[n].rss_mb / untraced[n].rss_mb for n in names if untraced[n].rss_mb]
        plain = untraced["mine"].seconds
        m["trace.mine.overhead_pct"] = (traced_ops["mine"].seconds - plain) / plain * 100
        if untraced["mine"].rss_mb:  # 0 when the mine child died
            ratios.append(traced_ops["mine"].rss_mb / untraced["mine"].rss_mb)
        m["trace.spans"] = (len(main.spans) + len(self.miner_setup_trace.spans) + len(mine.spans)
                            + sum(len(s.spans) for s in traced.values()))
        m["trace.peak_rss_ratio"] = max(ratios, default=0.0)
        if m["trace.peak_rss_ratio"] > TRACE_RSS_FACTOR:
            worst = max(traced_ops.values(), key=lambda op: op.rss_mb / max(untraced[op.name].rss_mb, 1e-9))
            self._note_failure(worst, f"traced peak RSS exceeds {TRACE_RSS_FACTOR}x the untraced run's")

        # A function that no longer exists leaves its metrics at 0; say which.
        missing = set(main.absent).union(self.miner_setup_trace.absent, mine.absent,
                                         *(s.absent for s in traced.values()))
        self.absent = [name for name, _ in PER_LAYER if any(
            name.startswith(f"{function}.") or name in _ALSO_READS.get(function, ()) for function in missing)]
        if "distract:quarter" not in traced:
            self.not_measured.append("distractor.per_expr_growth_4x")
        return {name: m[name] for name, _ in PER_LAYER}

    @staticmethod
    def _growth(full: tracing.Summary, quarter: tracing.Summary) -> float:
        """Per-expression scan time at the full corpus over the same at a quarter of it."""
        def per_expression(s: tracing.Summary) -> float:
            calls = s.calls("distractor.find_distractors")
            scan = s.seconds("distractor.find_distractors") + s.seconds("distractor.missing_counts")
            return scan / calls if calls else 0.0
        small = per_expression(quarter)
        return per_expression(full) / small if small else 0.0

    # --------------------------------------------------------------- report

    def result(self, metrics: dict[str, float], iterations: int) -> dict:
        units = dict(END_TO_END + PER_LAYER)
        attempted = sum(op.attempted for op in self.ops)
        failed = sum(op.failed for op in self.ops)
        digests = {}
        for op in self.ops:
            if op.failure is None and op.digest is not None:
                digests.setdefault(op.name, op.digest)
        digests.update({f"setup.{k}": v for k, v in self.setup_digests.items()})
        self.record = {
            "workload": self.name,
            "seed": self.seed,
            "iterations": iterations,
            "digests": digests,
            "fingerprint": self.fingerprint,
            "samples": self._per_op("seconds", traced=False),
            "rss_mb": self._per_op("rss_mb", traced=False),
            "traced_seconds": self._per_op("seconds", traced=True),
            "traced_rss_mb": self._per_op("rss_mb", traced=True),
            "setup_seconds": self.setup_seconds,
            "table_build_seconds": self.build_seconds,
            "check_seconds": self.check_seconds,
            "failures": [f"{op.name}#{op.iteration}: {op.failure}" for op in self.ops if op.failure],
            "absent": self.absent,
            "not_measured": self.not_measured,
        }
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }

    def _per_op(self, attribute: str, traced: bool) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for op in self.ops:
            if op.traced == traced:
                out.setdefault(op.name, []).append(getattr(op, attribute))
        return out

    def write_trace(self, path: Path) -> None:
        """All spans of a traced run, one list per operation."""
        data = {"main": self.tracer.to_jsonable(),
                "miner": {"spans": self.miner_setup_trace.spans, "absent": sorted(self.miner_setup_trace.absent)}}
        for op in self.ops:
            if op.trace is not None:
                data[f"{op.name}#{op.iteration}"] = {"spans": op.trace.spans, "absent": sorted(op.trace.absent)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


def flip_middle_byte(path: Path) -> None:
    """Corrupt an output on purpose: flip the low bit of its middle byte."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
