"""Record the reference digests that every benchmark run checks against.

    python3 bench/reference.py

Rewrites reference.json from the current sources: the sha256 of the bytes
each compute catalog entry prints, of the verify report (wall-time fields
removed) for each program seed in the pool, and of the canonical normal form
of every straighten word.  The straighten words themselves are drawn here,
once, from a fixed seed; runs take them in a seeded order.  Run it
only at a commit whose outputs are known to be right; every later run is
compared with what it records.
"""

import sys

sys.dont_write_bytecode = True  # noqa: E402

import hashlib
import json
import random

import inputs
from run import OUT, REFERENCE, fresh_dir, git_sha, report_digest, spawn

WORDS_SEED = 20240811


def draw_words():
    """The ladder plus distinct random U(gl_3) and Y(gl_3) words."""
    rng = random.Random(WORDS_SEED)
    gl3, y3 = set(), set()
    while len(gl3) < inputs.GL3_WORDS:
        gl3.add(inputs.random_gl3_word(rng))
    while len(y3) < inputs.Y3_WORDS:
        y3.add(inputs.random_y3_word(rng))
    return list(inputs.LADDER) + sorted(gl3) + sorted(y3)


def main():
    workdir = fresh_dir(OUT / "reference")
    ref = {"commit": git_sha(), "compute": {}, "verify": {}, "straighten": {}}
    for k, entry in enumerate(inputs.COMPUTE_CATALOG):
        p = spawn(["cli", "compute", *entry.split()], workdir, f"c{k}")
        if p["code"] != 0:
            raise SystemExit(f"compute {entry} failed")
        ref["compute"][entry] = hashlib.sha256(p["stdout"]).hexdigest()
    for seed in inputs.VERIFY_SEEDS:
        args = list(inputs.VERIFY_ARGS) + ["--seed", str(seed)]
        p = spawn(["cli", *args], workdir, f"v{seed}")
        report = json.loads(p["stdout"])
        if p["code"] != 0 or any(r["status"] != "pass" for r in report):
            raise SystemExit(f"verify --seed {seed} does not pass")
        ref["verify"][str(seed)] = {"digest": report_digest(report), "checks": len(report)}
    words = draw_words()
    path = workdir / "words.json"
    path.write_text(json.dumps(words), encoding="utf-8")
    p = spawn(["straighten", str(path)], workdir, "s")
    if p["code"] != 0:
        raise SystemExit("straighten failed")
    ref["straighten"] = {w: d for w, (_, d, _) in zip(words, p["meta"]["words"])}
    REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}: {len(ref['compute'])} compute, {len(ref['verify'])} verify, "
          f"{len(ref['straighten'])} straighten digests")


if __name__ == "__main__":
    main()
