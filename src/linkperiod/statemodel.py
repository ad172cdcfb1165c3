"""Vertex-weight state sum on braid closures.

Arcs of the closure are labeled from I_N = {-N+1, -N+3, ..., N-1}.  At a
crossing with incoming labels (c, d) (left, right below) and outgoing
labels (a, b) (left, right above), exactly one of six local rules holds:

  positive:  (1) a=c, b=d, a>b   weight q - q^-1   splice
             (2) a=b=c=d         weight q          splice
             (3) a=d, b=c, a!=b  weight 1          flat
  negative:  (4) a=c, b=d, a<b   weight q^-1 - q   splice
             (5) a=b=c=d         weight q^-1       splice
             (6) a=d, b=c, a!=b  weight 1          flat

Splice reconnects the strands in parallel (left-in to left-out), a flat
crossing passes them straight through.  In a trace closure every spliced
loop winds counterclockwise around the braid axis, so rot = +1 for all
loops and the norm of a state is the sum of its loop labels.  The
resulting invariant q^(-writhe*N) <D> equals the skein-route quantum
invariant and serves as its independent oracle.

`brackets` sums the states for every requested N in one transfer pass
over the braid letters (Turaev's vertex model, Invent. Math. 92, 1988).

Rank patterns.  A vertex weight depends only on whether the two labels
at a crossing are equal and, if not, which one is larger.  So the pass
carries ranks, not labels: a labelling of the n slots is replaced by its
rank pattern, the tuple of the ranks 0..k-1 of its k distinct values
(an ordered set partition of the slots).  A splice keeps the two ranks
in their slots and a flat crossing swaps them, so a partial state is
determined, as far as the rest of the braid can tell, by the pattern it
starts from at the bottom and the pattern its slots carry now.  The
table holds one summed weight per such pair.

Closed states.  The closure keeps the entries whose current pattern is
the starting one.  A flat crossing swaps only strands with different
labels, so strands with equal labels never pass each other; a state
that brings every label back to its slot therefore brings every strand
back to its own slot.  Each strand closes into its own spliced loop,
and the norm is the sum of the starting labels.  Summed over the
labellings with one pattern whose blocks have sizes m_0..m_(k-1), the
closed weight is multiplied by sum over v_0 < ... < v_(k-1) in I_N of
q^(m_0 v_0 + ... + m_(k-1) v_(k-1)); with v = 2u - N + 1 that is
q^(-(N-1)n) times a sum over u_0 < ... < u_(k-1) in 0..N-1, packed by a
shift DP over u.  Only that factor depends on N, so one pass over the
patterns with at most max(N) blocks serves every N, each N summed
packed and read by one laurent.unpack.

Packing.  A weight is one integer, its value at q = 2^width (Kronecker
substitution) with exponents raised to be nonnegative: every entry
starts as q^0, and before each block of ROOM letters all weights gain
q^(block length).  The local weights are q^+-1 (rule 2 / 5), one
shift; +-(q - q^-1) (rule 1 / 4), (x << width) - (x >> width); and 1
(rule 3 / 6).  A block has no more factors q^-1 than letters, so the
right shift is exact (the digit it drops is 0); raising per block, not
by L at once, keeps a weight near 2k digits after k letters.  Only the
brackets must fit the signed digits (laurent.digit_width): N^n starting
labellings and absolute coefficient sums at most tripling per letter
give max(N)^n * 3^L; a width that digit_width rounds up only
strengthens that bound.

Rows.  Row i of the table maps a starting pattern's number to the
weight of the states now at pattern i.  Per generator used, the
patterns are paired once by the swap of its slots, (i, j) with the
larger rank left in i.  A positive letter gives i the old row of j plus
the splice of i's, and j the old row of i; a negative one exchanges i
and j.  Each old row is read once, so rows move by reference and merge
in place.

Table bound.  The pass starts from the sum over k <= min(n, max N) of
k! * S(n, k) patterns (S the Stirling numbers of the second kind: 13 on
three strands, 75 on four).  A current pattern is a rearrangement of its
starting one, so the table never holds more than the sum over those
patterns of n! / (m_0! ... m_(k-1)!) entries (55 on three strands, 1,077
on four), whatever the braid length, and each letter maps every entry
to at most two.  `brackets` refuses a table of more than
`laurent.MAX_WORK` entries: the starting table before it is built, and
the table after each letter once that letter's work is done.
"""

from __future__ import annotations

import itertools
from math import comb

from . import laurent
from .diagram import BraidWord, writhe
from .laurent import LaurentPoly, ResourceLimitError, digit_width, unpack

#: Letters per raise of the weights.
ROOM = 24


# -- rank patterns ------------------------------------------------------------

def _pattern_count(n: int, blocks: int) -> int:
    """Rank patterns of n slots with at most `blocks` blocks: the sum
    over k of k! * S(n, k), by inclusion-exclusion over missed ranks."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** n
               for k in range(1, min(n, blocks) + 1) for i in range(k + 1))


def _rank_patterns(n: int, blocks: int):
    """Every rank pattern of n slots with at most `blocks` blocks: each
    set partition (as a restricted growth string) under every order of
    its blocks."""
    def partitions(prefix, k):
        if len(prefix) == n:
            yield prefix, k
            return
        for r in range(min(k + 1, blocks)):
            yield from partitions(prefix + (r,), max(k, r + 1))

    for rgs, k in partitions((), 0):
        for order in itertools.permutations(range(k)):
            yield tuple(order[r] for r in rgs)


def _ordered_sum(sizes: tuple[int, ...], N: int, width: int) -> int:
    """sum over v_0 < ... < v_(k-1) in I_N of q^(sum sizes[i] * v_i),
    times q^((N-1) * sum(sizes)), packed at `width`."""
    dp = [1] + [0] * len(sizes)
    for u in range(N):
        for i in range(len(sizes), 0, -1):
            dp[i] += dp[i - 1] << 2 * sizes[i - 1] * u * width
    return dp[-1]


# -- transfer pass ------------------------------------------------------------

def _swaps(patterns: list, index: dict, j: int):
    """The patterns with equal ranks at slots j, j + 1, and the pairs
    (i, i') swapped there, the larger rank on the left in i."""
    equal, pairs = [], []
    for i, r in enumerate(patterns):
        if r[j] == r[j + 1]:
            equal.append(i)
        elif r[j] > r[j + 1]:
            pairs.append((i, index[r[:j] + (r[j + 1], r[j]) + r[j + 2:]]))
    return equal, pairs


def brackets(b: BraidWord, ns) -> dict[int, LaurentPoly]:
    """N -> sum over all states of the vertex weights times q^norm, for
    every N in `ns`, from one transfer pass (module docstring).

    Raises ResourceLimitError when the table holds more than
    laurent.MAX_WORK entries, read at call time: the starting table is
    refused before it is built, with the largest N in the message, and
    the table is counted again after each letter.
    """
    ns = sorted(set(ns))
    if not ns:
        raise ValueError("need at least one N")
    if ns[0] < 2:
        raise ValueError(f"N must be >= 2: {ns[0]}")
    top = ns[-1]

    def guard(size):
        if size > laurent.MAX_WORK:
            raise ResourceLimitError(
                f"more than {laurent.MAX_WORK} state-sum table entries on "
                f"{b.text()!r} at N={top}")

    n, L = b.n, len(b.letters)
    guard(_pattern_count(n, top))
    patterns = list(_rank_patterns(n, top))
    index = {r: i for i, r in enumerate(patterns)}
    w = digit_width(top ** n * 3 ** L)
    table = [{i: 1} for i in range(len(patterns))]
    swaps = {j: _swaps(patterns, index, j)
             for j in {abs(e) - 1 for e in b.letters}}
    for t, e in enumerate(b.letters):
        if t % ROOM == 0:
            d = min(ROOM, L - t) * w
            for row in table:
                for s, x in row.items():
                    row[s] = x << d
        equal, pairs = swaps[abs(e) - 1]
        for i in equal:                                   # rule 2 / 5
            row = table[i]
            table[i] = ({s: x << w for s, x in row.items()} if e > 0
                        else {s: x >> w for s, x in row.items()})
        for i, k in pairs:
            if e < 0:
                i, k = k, i
            row, flat = table[i], table[k]
            for s, x in row.items():                      # rule 1 / 4
                x = (x << w) - (x >> w) if e > 0 else (x >> w) - (x << w)
                flat[s] = flat.get(s, 0) + x
            table[i], table[k] = flat, row                # rule 3 / 6
        guard(sum(map(len, table)))
    closed: dict[tuple[int, ...], int] = {}
    for i, r in enumerate(patterns):
        if i in table[i]:
            sizes = tuple(map(r.count, range(max(r) + 1)))
            closed[sizes] = closed.get(sizes, 0) + table[i][i]
    return {N: LaurentPoly._like(unpack(
        sum(x * _ordered_sum(sizes, N, w) for sizes, x in closed.items()),
        w, -L - (N - 1) * n)) for N in ns}


def invariant_statesums(b: BraidWord, ns) -> dict[int, LaurentPoly]:
    """N -> q^(-writhe * N) * bracket: the state-sum route to the quantum
    invariants of the braid closure, for every N in `ns` from one pass."""
    w = writhe(b)
    return {N: br.shift(-w * N) for N, br in brackets(b, ns).items()}
