"""The benchmark's child scorer for ``refsynth eval --command``.

It speaks the documented per-region protocol: one JSON request per line on
stdin (``box``, ``expr_id``, ``image_id``, ``object_id``, ``text``), one line
``{"score": <number>}`` back on stdout.  Scores use the formula of
``refsynth.util.hash_uniform``, written out here so that the child shares no
code with the program: sha256 of ``"seed|expr_id|image_id|object_id"``, first
seven bytes over 2**56.  Its report must therefore equal the
``--scorer hash-random`` report on the same instances.

``--fault`` makes the child lie once, on purpose: it gives the target region
of the first expression it sees a score no honest region can reach.  The
benchmark's own tests use it to show that a wrong child score is caught.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys


def hash_score(seed: int, expr_id: str, image_id: str, object_id: str) -> float:
    material = "|".join((str(seed), expr_id, image_id, object_id))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fault", action="store_true")
    args = parser.parse_args()
    faulty_expr = None
    for line in sys.stdin:
        request = json.loads(line)
        value = hash_score(args.seed, request["expr_id"], request["image_id"], request["object_id"])
        if args.fault:
            # expr_id is "<image_id>:<target_id>:<form>".
            image_id, target_id, _ = request["expr_id"].split(":")
            faulty_expr = faulty_expr or request["expr_id"]
            if (request["expr_id"] == faulty_expr and request["image_id"] == image_id
                    and request["object_id"] == target_id):
                value = 2.0
        sys.stdout.write(json.dumps({"score": value}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
