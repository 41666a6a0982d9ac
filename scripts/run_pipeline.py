#!/usr/bin/env python3
"""Run the full pipeline end to end on the checked-in fixture corpus.

Chains the CLI subcommands the way a real dataset build would: generate
expressions, attach distractors, split, print statistics, and evaluate the
built-in scorers.  ``--workers N`` runs ``generate`` with N processes.
Working files land in a scratch directory (default ``build/``) so nothing
under tests/ is touched.
"""

from __future__ import annotations

import argparse
import os
import sys

from refsynth.cli import main as refsynth_main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "tests", "fixtures")


def run(argv: list[str]) -> None:
    print(f"$ refsynth {' '.join(argv)}", file=sys.stderr)
    code = refsynth_main(argv)
    if code != 0:
        raise SystemExit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default=os.path.join(FIXTURES, "corpus20.json"))
    parser.add_argument("--out-dir", default=os.path.join(HERE, "..", "build"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1, help="generate's process count")
    args = parser.parse_args()

    out = os.path.abspath(args.out_dir)
    os.makedirs(out, exist_ok=True)
    expressions = os.path.join(out, "expressions.jsonl")
    instances = os.path.join(out, "instances.jsonl")
    seed = str(args.seed)

    run(["generate", "--corpus", args.corpus, "--out", expressions, "--seed", seed,
         "--workers", str(args.workers), "--log", os.path.join(out, "generate.log.json")])
    run(["distract", "--corpus", args.corpus, "--expressions", expressions,
         "--out", instances, "--log", os.path.join(out, "distract.log.json")])
    run(["split", "--instances", instances, "--out-dir", out, "--seed", seed])
    run(["stats", "--corpus", args.corpus, "--expressions", expressions,
         "--instances", instances])
    run(["eval", "--instances", instances, "--corpus", args.corpus, "--scorer", "oracle"])
    run(["eval", "--instances", instances, "--scorer", "hash-random", "--seed", seed])
    run(["mine-demo", "--corpus", args.corpus, "--seed", seed, "--iterations", "120"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
