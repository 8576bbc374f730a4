"""Seeded inputs of the three workloads.

The benchmark seed decides only what the program is given: the order of the
`compute` requests, the orders of the `straighten` words in successive rounds,
and which program seed `verify` runs with.  Every input is drawn from a fixed
set whose outputs have reference digests in `reference.json`, so any seed can
be checked for correctness.
"""

import random

# `verify all` at the default suite parameters takes about a minute on two
# cores, longer than one timed run may last; n=2 at order 4 keeps all 14
# suites and 170 checks at about 5 s per report.
VERIFY_ARGS = ("verify", "all", "--n", "2", "--order", "4", "--format", "json")

# Program seeds with a recorded report digest; the benchmark seed picks one.
VERIFY_SEEDS = (20240811, 1, 2, 3, 4, 5, 6, 7)

# All ten object kinds, costing about 0.15 s to 1.1 s each in a fresh process.
COMPUTE_CATALOG = (
    "e --k 2 --n 2 --order 6",
    "e --k 3 --n 3 --order 5",
    "e --k 3 --n 3 --order 4",
    "h --k 3 --n 2 --order 5",
    "h --k 4 --n 2 --order 4",
    "p --k 3 --n 2 --order 6 --sign -",
    "p --k 4 --n 3 --order 4 --sign +",
    "b --k 2 --n 3 --order 4 --z random --seed 7",
    "b --k 1 --n 3 --order 4 --z random --seed 11",
    "h_minus --m 5 --n 2 --order 4",
    "h_minus --m 3 --n 3 --order 3",
    "schur --lambda 2,2 --via h --n 2 --order 4",
    "schur --lambda 2,1 --via e --n 2 --order 5",
    "capelli_p --m 4 --n 3",
    "e_star --k 3 --n 4",
    "h_star --k 3 --n 3",
    "p_star --k 3 --n 3 --mu 2,1,0",
)

# U(gl_2) words e12^k e21^k: the memo working set grows steeply with k.
LADDER = tuple("gl2:" + " ".join(["12"] * k + ["21"] * k) for k in range(1, 9))
GL3_WORDS = 200
Y3_WORDS = 200


def verify_seed(seed):
    return VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]


def verify_args(seed):
    return list(VERIFY_ARGS) + ["--seed", str(verify_seed(seed))]


def compute_requests(seed):
    """Catalog indices, each exactly twice, in a seeded order.

    A request is a cache miss when its entry has not been requested earlier
    in the round, so half the requests miss and half hit.
    """
    reqs = [i for i in range(len(COMPUTE_CATALOG)) for _ in range(2)]
    random.Random(seed).shuffle(reqs)
    return reqs


def straighten_batch(seed, words, round_index=0):
    """The ladder in rising k, then the recorded random U(gl_3) and Y(gl_3)
    words in an order drawn from the seed and the round's index.

    The random words were drawn once; sampling fresh ones per seed made the
    amount of work vary by about 9% between seeds.  Their order changes which
    words pay for the memo entries they share, so each round of a run takes
    another order and a word's latency is its median over the rounds.  Odd
    rounds reverse the order of the round before, so that a word that came
    early, and paid for shared entries, comes late the next time.  The
    ladder keeps its place because each rung reuses most of the one below:
    shuffled, it moved the latency tail by a third between seeds.
    """
    rest = sorted(w for w in words if w not in LADDER)
    random.Random(f"{seed}/{round_index // 2}").shuffle(rest)
    if round_index % 2:
        rest.reverse()
    return list(LADDER) + rest


def random_gl3_word(rng):
    """A word of 8 to 10 uniformly drawn generators e_ij of U(gl_3)."""
    return "gl3:" + " ".join(f"{rng.randint(1, 3)}{rng.randint(1, 3)}"
                             for _ in range(rng.randint(8, 10)))


def random_y3_word(rng):
    """A word of Y(gl_3) generators t[r,i,j], r <= 3, of total level 8 to 10."""
    budget = rng.randint(8, 10)
    gens = []
    while budget:
        r = rng.randint(1, min(3, budget))
        budget -= r
        gens.append(f"{r}.{rng.randint(1, 3)}{rng.randint(1, 3)}")
    return "y3:" + " ".join(gens)


def parse_word(text):
    """("gl" | "yangian", n, generator-id tuple) for a word key.

    Keys read `gl<n>:ij ij ...` for e_ij in U(gl_n) and `y<n>:r.ij ...` for
    t[r,i,j] in Y(gl_n).
    """
    from yangsym.pbw import encode_e, encode_t
    head, body = text.split(":")
    gens = body.split()
    if head.startswith("gl"):
        n = int(head[2:])
        return "gl", n, tuple(encode_e(n, int(g[0]), int(g[1])) for g in gens)
    n = int(head[1:])
    out = []
    for g in gens:
        r, ij = g.split(".")
        out.append(encode_t(n, int(r), int(ij[0]), int(ij[1])))
    return "yangian", n, tuple(out)
