"""Pipeline benchmark of refsynth: the ``build``, ``consume`` and ``mine`` workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload build --seed 7 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds;
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run's output digests and workload fingerprint,
which are also written to ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The benchmark builds and checks the program of the checkout it sits in.
REQUIRED = ("src/refsynth/cli.py", "tests/oracles.py")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("build", "consume", "mine"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: every part on probe-size inputs, for the benchmark's own tests")
    parser.add_argument("--fault", choices=("flip-instances", "wrong-score"),
                        help="corrupt one output of the first iteration on purpose")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a refsynth checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import pipeline  # needs the checkout's src/ and tests/ on the path

    sizes = pipeline.TINY if args.size == "tiny" else pipeline.SIZES[args.workload]
    workload = pipeline.Workload(args.workload, args.seed, args.seconds, sizes, args.fault)
    pipeline.OUT.mkdir(exist_ok=True)
    try:
        result = workload.run(trace=bool(args.trace))
    except pipeline.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    stem = pipeline.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".record.json"), "w", encoding="utf-8") as handle:
        json.dump(workload.record, handle, indent=1, sort_keys=True)
    if args.trace:
        workload.write_trace(stem.with_suffix(".spans.json"))
    for failure in workload.record["failures"]:
        print(f"bench: failed {failure}", file=sys.stderr)
    print(json.dumps({"record": workload.record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
