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

`bracket` sums the states with one transfer pass over the braid letters
(Turaev's vertex model, Invent. Math. 92, 1988).  A splice keeps the two
labels in their slots and a flat crossing swaps them, so a partial state
is determined, as far as the rest of the braid can tell, by the labels
it gives the bottom slots and the slot permutation made by its flat
crossings.  The table holds one summed weight per such pair: at most
N^n * n! entries on n strands, whatever the braid length, and each
letter maps every entry to at most two.  At the top, the closure keeps
the entries whose labels are back in their starting slots; the cycles of
the permutation are then the spliced loops.
"""

from __future__ import annotations

import itertools

from .diagram import BraidWord, writhe
from .laurent import LaurentPoly

#: The most table entries `bracket` holds at once.
MAX_STATES = 2_000_000


class StateResourceError(RuntimeError):
    """The state-sum table went past MAX_STATES entries."""


def labels_range(N: int) -> list[int]:
    if N < 2:
        raise ValueError(f"N must be >= 2: {N}")
    return list(range(-N + 1, N, 2))


# -- transfer pass ------------------------------------------------------------

def _add(acc: dict[int, int], w: dict[int, int], d: int, k: int = 1) -> None:
    """acc += k * q^d * w, both as exponent -> coefficient maps."""
    for x, c in w.items():
        acc[x + d] = acc.get(x + d, 0) + k * c


def _loop_norm(L0: tuple[int, ...], pos: tuple[int, ...]) -> int:
    """Sum of the labels of the cycles of pos: the norm of a closed state."""
    seen = [False] * len(pos)
    total = 0
    for s in range(len(pos)):
        if not seen[s]:
            total += L0[s]
            t = s
            while not seen[t]:
                seen[t] = True
                t = pos[t]
    return total


def _transfer(table: dict, e: int) -> dict:
    """The table after letter e: every entry moves to at most two."""
    j = abs(e) - 1
    sign = 1 if e > 0 else -1
    nxt: dict = {}
    for key, w in table.items():
        L0, pos = key
        lc, ld = L0[pos[j]], L0[pos[j + 1]]
        if lc == ld:                                      # rule 2 / 5
            _add(nxt.setdefault(key, {}), w, sign)
            continue
        if (lc > ld) == (sign > 0):                       # rule 1 / 4
            acc = nxt.setdefault(key, {})
            _add(acc, w, 1, sign)
            _add(acc, w, -1, -sign)
        flat = pos[:j] + (pos[j + 1], pos[j]) + pos[j + 2:]
        _add(nxt.setdefault((L0, flat), {}), w, 0)        # rule 3 / 6
    return nxt


def bracket(b: BraidWord, N: int) -> LaurentPoly:
    """Sum over all states of the vertex weights times q^norm.

    A table key is (L0, pos): L0[s] is the label the state gives bottom
    slot s, and pos[s] is the bottom slot whose strand fills slot s after
    the flat crossings read so far, so slot s carries L0[pos[s]].  Its
    value maps exponents of q to coefficients.  Raises StateResourceError
    when the table holds more than MAX_STATES entries, which cannot
    happen when N^n * n! <= MAX_STATES.
    """
    def guard(size):
        if size > MAX_STATES:
            raise StateResourceError(
                f"more than {MAX_STATES} state-sum table entries on "
                f"{b.text()!r} at N={N}")

    values = labels_range(N)
    guard(len(values) ** b.n)
    ident = tuple(range(b.n))
    table = {(L0, ident): {0: 1}
             for L0 in itertools.product(values, repeat=b.n)}
    for e in b.letters:
        table = _transfer(table, e)
        guard(len(table))
    total: dict[int, int] = {}
    for (L0, pos), w in table.items():
        if all(L0[t] == L0[s] for s, t in enumerate(pos)):
            _add(total, w, _loop_norm(L0, pos))
    return LaurentPoly(total)


def invariant_statesum(b: BraidWord, N: int) -> LaurentPoly:
    """q^(-writhe * N) * bracket: the state-sum route to the quantum
    invariant of the braid closure."""
    return bracket(b, N).shift(-writhe(b) * N)
