"""The mine part of the pipeline benchmark: a stand-in for a training loop.

It runs as a child of the benchmark, so that its peak RSS is its own.  At
start it makes the embeddings from the seed: ``make_embeddings(seed,
regions, 64, categories)`` plus a disjoint block of ``large`` regions in 2
categories (ids and categories prefixed ``L``).  It then answers one
request per line on stdin, ``{"traced": false}``, with one JSON line on
stdout: ``builds`` ``build_sampling_table`` calls (the mine workload asks
for three: start plus two refreshes), each followed by ``draws``
``sample_negatives`` calls for regions picked by a seeded rng.  Only the
calls themselves are timed.  Every draw is checked outside its timed
interval: each peer shares the region's category and is not the region.  The old table is dropped before a refresh builds the new
one, so one table is alive at a time.  End of input ends the child.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import traceback
from time import perf_counter

import tracer as tracing
from refsynth import mining, synthgen

EMBEDDING_DIM = 64
LARGE_CATEGORIES = 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_embeddings(args) -> list:
    embeddings = synthgen.make_embeddings(args.seed, args.regions, EMBEDDING_DIM, args.categories)
    block = synthgen.make_embeddings(args.seed + 2, args.large, EMBEDDING_DIM, LARGE_CATEGORIES)
    embeddings.extend(
        mining.ModularEmbedding(region_id=f"L{e.region_id}", category=f"L{e.category}", modules=e.modules)
        for e in block
    )
    return embeddings


def fingerprint(category_of: dict[str, str]) -> dict:
    sizes: dict[str, int] = {}
    for category in category_of.values():
        sizes[category] = sizes.get(category, 0) + 1
    histogram: dict[int, int] = {}
    for n in sizes.values():
        histogram[n] = histogram.get(n, 0) + 1
    return {
        "regions": len(category_of),
        "categories": len(sizes),
        "category_size_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }


def mine_pass(args, embeddings, category_of, ids, tracer) -> dict:
    pick = random.Random(args.seed)
    draw_rng = random.Random(args.seed + 1)
    digest = hashlib.sha256()
    builds, draws, large, failures = [], [], [], []
    attempted = 0
    rows_mb = 0.0
    table = None
    for epoch in range(args.builds):
        table = None
        attempted += 1
        start = perf_counter()
        try:
            table = mining.build_sampling_table(embeddings, epoch=epoch)
        except Exception:  # a failed build is one failed operation
            failures.append(f"table build {epoch}: {traceback.format_exc(limit=1)}")
            continue
        builds.append(perf_counter() - start)
        for _ in range(args.draws):
            region = ids[pick.randrange(len(ids))]
            attempted += 1
            large.append(category_of[region].startswith("L"))
            start = perf_counter()
            try:
                peers = mining.sample_negatives(table, draw_rng, region)
            except Exception:  # a failed draw is one failed operation
                failures.append(f"draw for {region}: {traceback.format_exc(limit=1)}")
                continue
            draws.append(perf_counter() - start)
            wanted = category_of[region]
            if any(p == region or category_of.get(p) != wanted for p in peers.values()):
                failures.append(f"draw for {region} returned {peers}")
            digest.update(f"{region}>{','.join(peers[m] for m in sorted(peers))}\n".encode())
        # Bytes of the arrays the public blocks hold, read without calling into them.
        rows_mb = sum(v.nbytes for block in table.blocks.values() for v in vars(block).values()
                      if hasattr(v, "nbytes")) / 1e6
    reply = {
        "attempted": attempted,
        "builds": builds,
        "digest": digest.hexdigest(),
        "draws": draws,
        "failures": failures,
        "large": large,
        "rss_mb": peak_rss_mb(),
        "table_rows_mb": rows_mb,
    }
    if tracer is not None:
        reply["trace"] = tracer.to_jsonable()
    return reply


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    for name in ("seed", "regions", "categories", "large", "builds", "draws"):
        parser.add_argument(f"--{name}", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="trace set-up and traced passes")
    args = parser.parse_args()

    setup_tracer = tracing.Tracer() if args.trace else None
    if setup_tracer:
        setup_tracer.install(tracing.SETUP_TARGETS)
    embeddings = make_embeddings(args)
    # The first full-size builds pay one-time costs (numpy and BLAS start-up,
    # heap growth) that make them several times slower than later ones; a
    # training loop pays them once, so one untimed build of the whole table
    # belongs to set-up, not to the first timed builds.
    mining.build_sampling_table(embeddings)
    ready = {}
    if setup_tracer:
        setup_tracer.uninstall()
        ready["trace"] = setup_tracer.to_jsonable()
    category_of = {e.region_id: e.category for e in embeddings}
    ids = sorted(category_of)
    ready["fingerprint"] = fingerprint(category_of)
    print(json.dumps(ready), flush=True)

    for line in sys.stdin:
        traced = json.loads(line)["traced"]
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install(tracing.MINE_TARGETS)
        try:
            reply = mine_pass(args, embeddings, category_of, ids, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
