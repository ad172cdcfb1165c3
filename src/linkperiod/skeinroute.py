"""The skein route to the HOMFLY polynomial: skein.homfly's fallback for
a braid past HECKE_MAX_TERMS, and the independent reference the tests
compare the Hecke route against.  skein.homfly imports this module on
its first fallback, so a process whose braids all fit never compiles it.

Convention (as in skein): a^-1 P(L+) - a P(L-) = z P(L0), P(unknot) = 1.

The route runs on a diagram of the link: the one skein.homfly's caller
gives, such as the PD code the braid was read from (cli reads a PD code
as a braid by Vogel's algorithm and refuses a non-planar one, on which
this route's answer would depend on the arc labels), or else the braid's
closure.  One loop expands P(D) as a linear combination of diagrams
until all of them are descending, which is exponential in the crossing
count.  Traverse the closure from fixed base points in component order;
the first crossing first reached on its under-strand is either switched
(strictly enlarging the descending prefix) or smoothed (dropping a
crossing).  A descending diagram with k components is an unlink,
delta^(k-1).  Diagrams wait in one level per crossing count, taken from
the most crossings down, and a diagram equal up to arc renumbering to a
waiting one adds to its coefficient; one whose coefficient cancels
leaves the frontier.  Nothing is kept between calls.
"""

from __future__ import annotations

from .diagram import PlanarDiagram
from .laurent import BiLaurent
from .skein import DELTA

_A2 = BiLaurent.monomial(2, 0)       # a^2
_AZ = BiLaurent.monomial(1, 1)       # a z
_AM2 = BiLaurent.monomial(-2, 0)     # a^-2
_AMZ = BiLaurent.monomial(-1, 1)     # a^-1 z


def _canonical_key(crossings, free_loops):
    """Frontier key: arcs renumbered by first appearance over sorted
    crossings."""
    ordered = sorted(crossings, key=lambda c: (min(c[1:]), c))
    number: dict[int, int] = {}
    out = []
    for c in ordered:
        row = [c[0]]
        for a in c[1:]:
            if a not in number:
                number[a] = len(number)
            row.append(number[a])
        out.append(tuple(row))
    return (free_loops, tuple(out))


def _first_bad_crossing(crossings):
    """Walk the closure in component order (base point = smallest arc of
    each component); return the index of the first crossing first met on
    its under-strand, or None if the diagram is descending.  The second
    return value is the number of traversed components."""
    in_slot = {}
    for idx, c in enumerate(crossings):
        in_slot[c[1]] = (idx, "u")
        in_slot[c[2]] = (idx, "o")
    visited: set[int] = set()
    done_arcs: set[int] = set()
    comps = 0
    for base in sorted(in_slot):
        if base in done_arcs:
            continue
        comps += 1
        arc = base
        while True:
            done_arcs.add(arc)
            idx, strand = in_slot[arc]
            c = crossings[idx]
            if idx not in visited:
                visited.add(idx)
                if strand == "u":
                    return idx, comps
            arc = c[3] if strand == "u" else c[4]
            if arc == base:
                break
    return None, comps


def _switch(crossings, idx):
    s, ui, oi, uo, oo = crossings[idx]
    out = list(crossings)
    out[idx] = (-s, oi, ui, oo, uo)
    return out


def _smooth(crossings, idx, free_loops):
    """Remove crossing idx with the oriented smoothing (under_in joins
    over_out, over_in joins under_out); returns (crossings, free_loops)."""
    _, ui, oi, uo, oo = crossings[idx]
    rest = [c for i, c in enumerate(crossings) if i != idx]

    parent: dict[int, int] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    union(ui, oo)
    union(oi, uo)
    remapped = []
    used = set()
    for c in rest:
        row = (c[0], find(c[1]), find(c[2]), find(c[3]), find(c[4]))
        used.update(row[1:])
        remapped.append(row)
    vanished = {find(a) for a in (ui, oi, uo, oo)} - used
    return remapped, free_loops + len(vanished)


def _push(levels, crossings, free_loops, coeff: BiLaurent) -> None:
    """Add coeff times the diagram to the frontier, merging by key; as in
    `_add`, a diagram whose coefficient cancels is dropped."""
    level = levels[len(crossings)]
    key = _canonical_key(crossings, free_loops)
    if key in level:
        crossings, free_loops, waiting = level[key]
        coeff = waiting + coeff
        if coeff.is_zero():
            del level[key]
            return
    level[key] = (crossings, free_loops, coeff)


def homfly_diagram(d: PlanarDiagram) -> BiLaurent:
    """HOMFLY polynomial of the link of diagram d, by the skein route."""
    levels: list[dict] = [{} for _ in range(len(d.crossings) + 1)]
    _push(levels, d.crossings, d.free_loops, BiLaurent.one())
    unlinks: dict[int, BiLaurent] = {}     # component count -> coefficient
    for level in reversed(levels):
        while level:
            crossings, free_loops, coeff = level.pop(next(iter(level)))
            bad, comps = _first_bad_crossing(crossings)
            if bad is None:
                _add(unlinks, comps + free_loops, coeff)
                continue
            if crossings[bad][0] > 0:
                # D = L+:  P(L+) = a^2 P(L-) + a z P(L0)
                switched, smoothed = _A2 * coeff, _AZ * coeff
            else:
                # D = L-:  P(L-) = a^-2 P(L+) - a^-1 z P(L0)
                switched, smoothed = _AM2 * coeff, -(_AMZ * coeff)
            _push(levels, _switch(crossings, bad), free_loops, switched)
            _push(levels, *_smooth(crossings, bad, free_loops), smoothed)
    if 0 in unlinks:
        raise ValueError("empty diagram has no components")
    return sum((c * DELTA ** (k - 1) for k, c in unlinks.items()),
               BiLaurent.zero())


def _add(element, key, value: BiLaurent) -> None:
    """element[key] += value, dropping the key if its coefficient cancels."""
    old = element.get(key)
    total = value if old is None else old + value
    if total.is_zero():
        element.pop(key, None)
    else:
        element[key] = total
