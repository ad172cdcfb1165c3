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

`enumerate_states` is the small reference enumerator of whole states,
kept for the proper-state tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import BraidWord, braid_segments, strand_component, writhe
from .laurent import LaurentPoly

DEFAULT_MAX_STATES = 2_000_000


class StateResourceError(RuntimeError):
    """A state-sum size guard (`max_states`) tripped."""


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


def bracket(b: BraidWord, N: int,
            max_states: int = DEFAULT_MAX_STATES) -> LaurentPoly:
    """Sum over all states of the vertex weights times q^norm.

    A table key is (L0, pos): L0[s] is the label the state gives bottom
    slot s, and pos[s] is the bottom slot whose strand fills slot s after
    the flat crossings read so far, so slot s carries L0[pos[s]].  Its
    value maps exponents of q to coefficients.  Raises StateResourceError
    when the table holds more than max_states entries, which cannot
    happen when N^n * n! <= max_states.
    """
    def guard(size):
        if size > max_states:
            raise StateResourceError(
                f"more than {max_states} state-sum table entries on "
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


def invariant_statesum(b: BraidWord, N: int,
                       max_states: int = DEFAULT_MAX_STATES) -> LaurentPoly:
    """q^(-writhe * N) * bracket: the state-sum route to the quantum
    invariant of the braid closure."""
    return bracket(b, N, max_states).shift(-writhe(b) * N)


# -- reference enumerator -----------------------------------------------------

@dataclass(frozen=True)
class NState:
    """An arc labeling together with the rule tag at every crossing."""

    braid: BraidWord
    labels: tuple[int, ...]        # arc id -> label
    rules: tuple[int, ...]         # crossing index -> rule 1..6


def _arc_structure(b: BraidWord):
    """(number of arcs, crossing arc tuples (c, d, a, b), crossing signs,
    free arcs untouched by any crossing)."""
    k = len(b.letters)
    arc_of, slots = braid_segments(b)
    if k == 0:
        return b.n, [], [], list(range(b.n))
    num_arcs = max(arc_of.values()) + 1
    quads = []
    signs = []
    for i, e in enumerate(b.letters):
        j = slots[i]
        quads.append((arc_of[(i, j)], arc_of[(i, j + 1)],
                      arc_of[((i + 1) % k, j)], arc_of[((i + 1) % k, j + 1)]))
        signs.append(1 if e > 0 else -1)
    touched = {a for q in quads for a in q}
    free = [a for a in range(num_arcs) if a not in touched]
    return num_arcs, quads, signs, free


def _rule_for(sign: int, lc: int, ld: int, la: int, lb: int) -> int | None:
    """Rule tag for a fully labeled crossing, or None if invalid."""
    if lc == ld == la == lb:
        return 2 if sign > 0 else 5
    if la == lc and lb == ld:
        if sign > 0 and la > lb:
            return 1
        if sign < 0 and la < lb:
            return 4
        return None
    if la == ld and lb == lc and la != lb:
        return 3 if sign > 0 else 6
    return None


def _enumerate_raw(b: BraidWord, N: int, max_states: int):
    """Yield (labels tuple, rules tuple) for every valid state, in a
    deterministic order (labels tried ascending, splice before flat)."""
    num_arcs, quads, signs, free = _arc_structure(b)
    values = labels_range(N)
    labels: list[int | None] = [None] * num_arcs
    rules: list[int] = [0] * len(quads)
    produced = 0

    def fill_free(fi: int):
        nonlocal produced
        if fi == len(free):
            produced += 1
            if produced > max_states:
                raise StateResourceError(
                    f"more than {max_states} states on {b.text()!r}")
            yield tuple(labels), tuple(rules)
            return
        for v in values:
            labels[free[fi]] = v
            yield from fill_free(fi + 1)
        labels[free[fi]] = None

    def out_options(sign, lc, ld):
        # Candidate (a, b) label pairs, ordered by rule number.
        if lc == ld:
            return [(lc, ld)]
        opts = []
        if (sign > 0 and lc > ld) or (sign < 0 and lc < ld):
            opts.append((lc, ld))     # rule 1 / 4
        opts.append((ld, lc))         # rule 3 / 6
        return opts

    def assign(arc, value):
        if labels[arc] is None:
            labels[arc] = value
            return True, True
        return labels[arc] == value, False

    def search(ci: int):
        if ci == len(quads):
            yield from fill_free(0)
            return
        c_arc, d_arc, a_arc, b_arc = quads[ci]
        in_choices_c = [labels[c_arc]] if labels[c_arc] is not None else values
        for lc in in_choices_c:
            set_c = labels[c_arc] is None
            if set_c:
                labels[c_arc] = lc
            in_choices_d = [labels[d_arc]] if labels[d_arc] is not None else values
            for ld in in_choices_d:
                set_d = labels[d_arc] is None
                if set_d:
                    labels[d_arc] = ld
                for la, lb in out_options(signs[ci], lc, ld):
                    ok_a, new_a = assign(a_arc, la)
                    if ok_a:
                        ok_b, new_b = assign(b_arc, lb)
                        if ok_b:
                            rules[ci] = _rule_for(signs[ci], lc, ld, la, lb)
                            yield from search(ci + 1)
                        if new_b:
                            labels[b_arc] = None
                    if new_a:
                        labels[a_arc] = None
                if set_d:
                    labels[d_arc] = None
            if set_c:
                labels[c_arc] = None

    yield from search(0)


def enumerate_states(b: BraidWord, N: int,
                     max_states: int = DEFAULT_MAX_STATES) -> list[NState]:
    """All valid states on the closure of b, deterministically ordered.
    Exponential in the crossing count: a reference for small braids."""
    return [NState(b, labels, rules)
            for labels, rules in _enumerate_raw(b, N, max_states)]


def is_proper(state: NState) -> bool:
    """True iff no vertex carries weight +-(q - q^-1)."""
    return all(r not in (1, 4) for r in state.rules)


def self_crossing_indices(b: BraidWord) -> list[int]:
    """Indices of crossings where one link component crosses itself."""
    comp_of = strand_component(b)
    pos = list(range(1, b.n + 1))  # pos[slot-1] = strand in that slot
    out = []
    for i, e in enumerate(b.letters):
        j = abs(e) - 1
        if comp_of[pos[j]] == comp_of[pos[j + 1]]:
            out.append(i)
        pos[j], pos[j + 1] = pos[j + 1], pos[j]
    return out
