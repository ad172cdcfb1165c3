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
q^(m_0 v_0 + ... + m_(k-1) v_(k-1)), a small DP over I_N.  Only that
factor depends on N, so one pass over the patterns with at most max(N)
blocks serves every N.

Packing.  A weight is a Laurent polynomial in q.  Taking q^-1 out of
every letter leaves local weights that are polynomials: q^2 or 1 for
rule 2 / 5, +-(q^2 - 1) for rule 1 / 4 and q for rule 3 / 6.  So a
weight of the pass is q^-L X(q) after L letters, and X is kept as the
one integer X(2^width) (Kronecker substitution): a letter costs a shift
and a subtraction per entry, whatever the number of terms.  Each entry
after a letter is its old value times a local weight with absolute
coefficient sum at most 2, plus q times one other entry's old value, so
coefficient sums grow at most threefold per letter; a slot width
(laurent.digit_width) whose signed digits hold the patterns times 3^L
lets the shared decoder laurent.unpack read every closed sum exactly.

Table bound.  The pass starts from the sum over k <= min(n, max N) of
k! * S(n, k) patterns (S the Stirling numbers of the second kind: 13 on
three strands, 75 on four).  A current pattern is a rearrangement of its
starting one, so the table never holds more than the sum over those
patterns of n! / (m_0! ... m_(k-1)!) entries (55 on three strands, 1,077
on four, against N^n * n! for a pass keyed by labels and slot
permutation), whatever the braid length, and each letter maps every
entry to at most two.
"""

from __future__ import annotations

import itertools
from math import comb

from .diagram import BraidWord, writhe
from .laurent import LaurentPoly, digit_width, unpack

#: The most table entries `brackets` holds at once.
MAX_STATES = 2_000_000


class StateResourceError(RuntimeError):
    """The state-sum table went past MAX_STATES entries."""


def labels_range(N: int) -> list[int]:
    if N < 2:
        raise ValueError(f"N must be >= 2: {N}")
    return list(range(-N + 1, N, 2))


def _add(acc: dict[int, int], w: dict[int, int], d: int, k: int = 1) -> None:
    """acc += k * q^d * w, both as exponent -> coefficient maps."""
    for x, c in w.items():
        acc[x + d] = acc.get(x + d, 0) + k * c


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


def _ordered_sum(sizes: tuple[int, ...], N: int) -> dict[int, int]:
    """sum over v_0 < ... < v_(k-1) in I_N of q^(sum sizes[i] * v_i)."""
    k = len(sizes)
    dp: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(k)]
    for v in labels_range(N):
        for i in range(k, 0, -1):
            _add(dp[i], dp[i - 1], sizes[i - 1] * v)
    return dp[k]


# -- transfer pass ------------------------------------------------------------

def _rank_transfer(table: dict, e: int, width: int) -> dict:
    """The table after letter e, with q^-1 taken out of its weights:
    every entry moves to at most two."""
    j = abs(e) - 1
    equal = 2 * width if e > 0 else 0                     # q^2 or 1
    nxt: dict = {}

    def merge(cur, row):
        acc = nxt.get(cur)
        if acc is None:
            nxt[cur] = row
        else:
            for s, w in row.items():
                acc[s] = acc.get(s, 0) + w

    for cur, row in table.items():
        lc, ld = cur[j], cur[j + 1]
        if lc == ld:                                      # rule 2 / 5
            # No other entry reaches two equal ranks at j, j + 1, and
            # the old row is read only here, so it may move as it is.
            nxt[cur] = {s: w << equal for s, w in row.items()} if equal else row
            continue
        if (lc > ld) == (e > 0):                          # rule 1 / 4
            if e > 0:
                merge(cur, {s: (w << 2 * width) - w for s, w in row.items()})
            else:
                merge(cur, {s: w - (w << 2 * width) for s, w in row.items()})
        merge(cur[:j] + (ld, lc) + cur[j + 2:],           # rule 3 / 6
              {s: w << width for s, w in row.items()})
    return nxt


def brackets(b: BraidWord, ns) -> dict[int, LaurentPoly]:
    """N -> sum over all states of the vertex weights times q^norm, for
    every N in `ns`, from one transfer pass.

    The table maps the current rank pattern of the slots to a row, which
    maps the index of a starting pattern to a packed weight (see the
    module docstring).  Raises StateResourceError when the table would
    hold more than MAX_STATES entries; the starting table is refused
    before it is built, with the largest N in the message.
    """
    ns = sorted(set(ns))
    if not ns:
        raise ValueError("need at least one N")
    for N in ns:
        labels_range(N)
    top = ns[-1]

    def guard(size):
        if size > MAX_STATES:
            raise StateResourceError(
                f"more than {MAX_STATES} state-sum table entries on "
                f"{b.text()!r} at N={top}")

    guard(_pattern_count(b.n, top))
    patterns = list(_rank_patterns(b.n, top))
    L = len(b.letters)
    width = digit_width(len(patterns) * 3 ** L)
    table = {r: {i: 1} for i, r in enumerate(patterns)}
    for e in b.letters:
        table = _rank_transfer(table, e, width)
        guard(sum(map(len, table.values())))
    index = {r: i for i, r in enumerate(patterns)}
    closed: dict[tuple[int, ...], int] = {}
    for cur, row in table.items():
        w = row.get(index[cur])
        if w is not None:
            sizes = tuple(cur.count(r) for r in range(max(cur) + 1))
            closed[sizes] = closed.get(sizes, 0) + w
    weights = {sizes: unpack(w, width, -L) for sizes, w in closed.items()}
    out = {}
    for N in ns:
        total: dict[int, int] = {}
        for sizes, w in weights.items():
            for d, c in _ordered_sum(sizes, N).items():
                _add(total, w, d, c)
        out[N] = LaurentPoly(total)
    return out


def bracket(b: BraidWord, N: int) -> LaurentPoly:
    """The state sum of the braid closure at one N."""
    return brackets(b, (N,))[N]


def invariant_statesums(b: BraidWord, ns) -> dict[int, LaurentPoly]:
    """N -> q^(-writhe * N) * bracket: the state-sum route to the quantum
    invariants of the braid closure, for every N in `ns` from one pass."""
    w = writhe(b)
    return {N: br.shift(-w * N) for N, br in brackets(b, ns).items()}


def invariant_statesum(b: BraidWord, N: int) -> LaurentPoly:
    """The state-sum invariant of the braid closure at one N."""
    return invariant_statesums(b, (N,))[N]
