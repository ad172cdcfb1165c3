"""Workload inputs: the seeded braid generator, the frozen corpus and the
per-seed op stream.

Every workload is a list of *bases* (one link each, with the command
arguments that go with it) frozen in ``corpus.json`` together with the
SHA-256 digest of the report the program printed for it when the corpus
was frozen.  ``freeze.py`` rebuilds that file from ``build_bases``.

A run repeats *cycles*.  One cycle runs every base of the workload once.
The seed draws the order of the ops in each cycle and, on ``knots``,
which third of the ops get the PD text instead of the braid.  Nothing
the seed draws changes how much work an op is, so every seed runs the
same op mix, and every cycle does the same work: each base has its own
prime (or N list) in every cycle.  On ``knots`` base i is checked at
KNOT_PRIMES[i mod 5].  Rotating the primes from
cycle to cycle was tried and dropped: a run that fitted one cycle more
or less than another then ran another mix of primes, which moved the
median by a twentieth.  A seeded rotation of each word (a conjugation,
which keeps every report the same) was tried on ``links`` and dropped:
it moved the median op time by up to a fifth between seeds.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CORPUS_PATH = Path(__file__).with_name("corpus.json")

#: Seed of the one-off random draw frozen in corpus.json.
CORPUS_SEED = 20180524

KNOT_PRIMES = (3, 5, 7, 11, 13)
#: Bases per workload.  p90 falls on the middle of the copies of one base
#: (0.9 * 35 = 31.5), not on the border between two bases, whose times
#: can differ by half.
CYCLE_OPS = 35
WORKLOADS = ("knots", "oracle", "links")


def torus_braid(a: int, b: int) -> str:
    """Braid word of the torus link T(a, b): (s1 s2 ... s_{a-1})^b."""
    return f"n={a}; " + " ".join(str(i) for _ in range(b) for i in range(1, a))


def word(text: str) -> tuple[int, list[int]]:
    """Strand count and letters of a braid text "n=<k>; <letters>"."""
    head, _, body = text.partition(";")
    return int(head.split("=")[1]), [int(t) for t in body.split()]


def braid_text(n: int, letters) -> str:
    return f"n={n}; " + " ".join(str(e) for e in letters)


def components(n: int, letters) -> list[int]:
    """Strand count of each closure component (its linking number with
    the braid axis), from the permutation the word induces."""
    perm = list(range(n))
    for e in letters:
        j = abs(e) - 1
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    seen, sizes = set(), []
    for s in range(n):
        size = 0
        while s not in seen:
            seen.add(s)
            s = perm[s]
            size += 1
        if size:
            sizes.append(size)
    return sizes


def random_braid(rng: random.Random, n: int, length: int, m: int) -> str:
    """A cyclically reduced random word on n strands whose closure has m
    components and uses every generator.  It has `length` letters, or one
    more: a permutation of n strands with m cycles is a product of
    n - m (mod 2) transpositions."""
    length += (length - n + m) % 2
    while True:
        letters: list[int] = []
        while len(letters) < length:
            e = rng.choice((1, -1)) * rng.randint(1, n - 1)
            if not letters or letters[-1] != -e:
                letters.append(e)
        if (letters[0] != -letters[-1]
                and {abs(e) for e in letters} == set(range(1, n))
                and len(components(n, letters)) == m):
            return braid_text(n, letters)


def control(n: int, w: str, p: int) -> dict:
    """The p-periodic closure of w^p; the report must keep the strand
    counts of its components (their linking numbers with the axis, mod p)
    as a candidate tuple."""
    letters = [int(t) for t in w.split()] * p
    return {"id": f"({w})^{p} n={n}", "braid": braid_text(n, letters), "p": p,
            "control": sorted(k % p for k in components(n, letters))}


def build_bases() -> dict[str, dict]:
    """The unfrozen corpus: per workload, its fixed command arguments and
    its CYCLE_OPS bases.  Random bases are drawn from CORPUS_SEED."""
    rng = random.Random(CORPUS_SEED)

    knots = [{"id": f"T({a},{b})", "braid": torus_braid(a, b), "torus": [a, b]}
             for a, b in [(2, k) for k in range(3, 24, 2)]
             + [(3, 7), (3, 8), (3, 10), (4, 5), (5, 6)]]
    for i in range(19):
        n = 3 + i % 2
        knots.append({"id": f"rk{i}",
                      "braid": random_braid(rng, n, 8 + (i * 12) // 18, 1)})
    for i, b in enumerate(knots):
        b["p"] = KNOT_PRIMES[i % len(KNOT_PRIMES)]

    oracle = [{"id": f"T({a},{b})", "braid": torus_braid(a, b), "n": n}
              for a, b, n in [(2, 5, "2,3,4"), (2, 7, "2,3,4"), (2, 8, "2,3,4"),
                              (2, 9, "2,3,4"), (2, 11, "2,3"), (2, 12, "2,3"),
                              (2, 14, "2,3"), (3, 4, "2,3,4"), (3, 5, "2,3,4"),
                              (3, 7, "2,3"), (3, 8, "2,3"), (3, 10, "2,3")]]
    for i in range(23):
        length = 8 + (i * 8) // 22
        oracle.append({"id": f"ro{i}",
                       "braid": random_braid(rng, 3, length, 1 + i % 3 // 2),
                       "n": "2,3,4" if length <= 12 else "2,3"})

    links = [{"id": f"pure4 p={p}", "braid": "n=4; 1 1 2 2 3 3", "p": p}
             for p in (5, 7)]
    links += [control(3, "1", 13), control(4, "1", 13), control(4, "1", 11),
              control(2, "1 1", 5), control(2, "1 1", 7),
              control(3, "1 1 2", 5),
              control(4, "1 3", 5), control(4, "1 3", 7), control(4, "1 3", 11),
              control(4, "1 1 3", 5)]
    for i in range(23):
        # Mostly 3 components, so the median op falls among p^3 enumerations.
        m = (2, 3, 3, 4)[i % 4]
        p = 5 if m == 4 else (5, 7, 11, 13)[i // 2 % 4]
        links.append({"id": f"rl{i}", "p": p,
                      "braid": random_braid(rng, 3 + (m == 4), 8 + i % 7, m)})

    assert len(knots) == len(oracle) == len(links) == CYCLE_OPS
    return {
        "knots": {"argv": ["check", "--n", "2,3"], "bases": knots},
        "oracle": {"argv": ["invariant", "--oracle"], "bases": oracle},
        "links": {"argv": ["check", "--n", "2,3"], "bases": links},
    }


def load_corpus() -> dict[str, dict]:
    with open(CORPUS_PATH) as fh:
        return json.load(fh)["workloads"]


def op_argv(workload: str, spec: dict, base: dict, p: int | None,
            as_pd: bool, rotation: int = 0) -> list[str]:
    """Command-line arguments of one op (without --format/--out); the
    braid word is rotated left by `rotation` letters."""
    argv = list(spec["argv"])
    if as_pd:
        argv += ["--pd", base["pd"]]
    else:
        n, letters = word(base["braid"])
        r = rotation % max(len(letters), 1)
        argv += ["--braid", braid_text(n, letters[r:] + letters[:r])]
    if workload == "oracle":
        argv += ["--n", base["n"]]
    else:
        argv += ["-p", str(p)]
    return argv


def cycles(workload: str, spec: dict, seed: int):
    """Endless stream of cycles; each cycle is a list of ops
    ``(base, p, argv)`` covering every base once."""
    rng = random.Random(f"{workload}:{seed}")
    bases = spec["bases"]
    while True:
        order = list(range(len(bases)))
        rng.shuffle(order)
        pd_ops = set(rng.sample(order, len(order) // 3)) if workload == "knots" else set()
        ops = []
        for i in order:
            base = bases[i]
            p = base.get("p")
            ops.append((base, p, op_argv(workload, spec, base, p, i in pd_ops)))
        yield ops
