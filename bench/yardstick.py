"""A fixed task that measures how fast the machine runs at the moment.

    python3 bench/yardstick.py      prints the task's seconds

A shared virtual machine (2 vCPUs of a 2.1 GHz Xeon, say) changes speed by
up to twofold over seconds to minutes as other tenants come and go, which
would swamp any change to the program.  The benchmark runs this task in a
fresh process before and after each round and scales the round's timings by
YARDSTICK_S / (the mean of the two times).

The task is the program's hot path in miniature, frozen here so that no
change to the program can move it: normal ordering in U(gl_3) by rewriting
the leftmost inversion, memoised on whole words, over `fractions.Fraction`
coefficients.  It uses the standard library only.

The first CALIBRATION_WORDS words of the batch, a task of a few
milliseconds, serve as a local calibration: child.py times them between
words of a straighten round to follow the machine's speed within a round.
"""

import functools
import random
import time
from fractions import Fraction

N = 3
ONE = Fraction(1)
CALIBRATION_WORDS = 4


def _gid(i, j):
    """Lowering generators first, then diagonal, then raising."""
    block = 0 if i > j else (1 if i == j else 2)
    return (block * N + i - 1) * N + j - 1


def _ij(gid):
    return divmod(gid % (N * N), N)


def _exchange(a, b):
    """x_a x_b for a > b: x_b x_a + [e_ij, e_kl], with
    [e_ij, e_kl] = d_jk e_il - d_li e_kj."""
    (i, j), (k, l) = _ij(a), _ij(b)
    terms = [(ONE, (b, a))]
    if j == k:
        terms.append((ONE, (_gid(i + 1, l + 1),)))
    if l == i:
        terms.append((-ONE, (_gid(k + 1, j + 1),)))
    return terms


def _normal_word(word, memo):
    res = memo.get(word)
    if res is not None:
        return res
    for p in range(len(word) - 1):
        if word[p] > word[p + 1]:
            break
    else:
        memo[word] = {word: ONE}
        return memo[word]
    out = {}
    for c, mid in _exchange(word[p], word[p + 1]):
        for w, q in _normal_word(word[:p] + mid + word[p + 2:], memo).items():
            s = out.get(w, 0) + c * q
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    memo[word] = out
    return out


@functools.cache
def _words():
    rng = random.Random(20240811)
    gens = [_gid(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    return [tuple(rng.choice(gens) for _ in range(rng.randint(7, 9))) for _ in range(150)]


def measure(count=None):
    """Seconds to normal-order the fixed batch, or its first `count` words,
    from an empty memo."""
    words = _words()[:count]
    memo = {}
    t0 = time.perf_counter()
    for w in words:
        _normal_word(w, memo)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(measure())
