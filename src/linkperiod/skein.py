"""HOMFLY polynomial, by the Hecke-algebra route with the skein route as
its fallback and reference, and its one-variable specializations.

Convention: a^-1 P(L+) - a P(L-) = z P(L0), P(unknot) = 1, so a
split union with an unknot multiplies by delta = (a^-1 - a)/z.

Braid words take the Hecke-algebra route (Jones, Ann. Math. 126, 1987;
Morton & Short, J. Algorithms 11, 1990): one pass over the letters
multiplies out the braid in H_n, with T_i^2 = z T_i + 1, as a dict from
permutation w to the coefficient of the basis element T_w.  Only the
permutations the braid reaches are stored, at most min(n!, 2^k) of them
for k letters on n strands, so the cost is linear in the braid length
while that count stays small.  A positive letter adds a second basis
element only where w descends at the letter, a negative one only where w
ascends, and the pass starts at the identity, which ascends everywhere;
so a braid with more negative than positive letters is multiplied out as
its mirror, and P(a, z) is read back as P(a^-1, -z).  The Ocneanu trace F
then descends the tower H_n -> ... -> H_1: for x, y in H_(m-1),
F(x T_(m-1) y) = a^-1 F(x y) and F(x) = delta F(x), each right-hand side
taken in H_(m-1).  Then P = a^writhe F.  A braid that needs more than
HECKE_MAX_TERMS basis elements at once (never one on at most 7 strands)
goes through the skein route on its diagram instead.

A planar diagram is first read as a braid by Vogel's algorithm
(vogel.braid_from_pd), one strand per Seifert circle, and takes the
Hecke route as that braid.  A non-planar diagram, or a braid from one
past HECKE_MAX_TERMS, takes the skein route on the diagram as given: one
loop expands P(D) as a linear combination of diagrams until all of them
are descending, which is exponential in the crossing count.  Traverse
the closure from fixed base points in component order; the first
crossing first reached on its under-strand is either switched (strictly
enlarging the descending prefix) or smoothed (dropping a crossing).  A
descending diagram with k components is an unlink, delta^(k-1).
Diagrams wait in one level per crossing count, taken from the most
crossings down, and a diagram equal up to arc renumbering to a waiting
one adds to its coefficient.  Nothing is kept between calls.  The skein
route is also the independent reference the tests compare the Hecke
route against.

The quantum, Jones and Alexander specializations take a to a monomial
x^k and z to x - x^-1.  The terms of each z power sum to one polynomial
in x, and one Horner pass from the top z power down multiplies by
x - x^-1 (a shift and a subtraction) once per power.  So the cost is
linear in the number of HOMFLY terms plus the z-degree times the width
(exponent span) of the polynomial.  When P has negative z powers the
pass runs down to the lowest of them, and the result is divided exactly
by the matching power of x - x^-1.
"""

from __future__ import annotations

from .diagram import BraidWord, PlanarDiagram, pd_from_braid, writhe
from .laurent import BiLaurent, LaurentPoly, exact_divide, quantum_integer

DEFAULT_MAX_CROSSINGS = 24

#: The most basis elements the Hecke route holds at once; 7! = 5040 keeps
#: every braid on at most 7 strands on that route.
HECKE_MAX_TERMS = 5040

#: delta = (a^-1 - a) z^-1, the value of a 2-component unlink.
DELTA = BiLaurent({(-1, -1): 1, (1, -1): -1})

_A2 = BiLaurent.monomial(2, 0)       # a^2
_AZ = BiLaurent.monomial(1, 1)       # a z
_AM2 = BiLaurent.monomial(-2, 0)     # a^-2
_AMZ = BiLaurent.monomial(-1, 1)     # a^-1 z
_AM1 = BiLaurent.monomial(-1, 0)     # a^-1
_Z = BiLaurent.monomial(0, 1)        # z


class ResourceLimitError(RuntimeError):
    """The input has more crossings (braid letters) than the limit."""


class _TooManyTerms(Exception):
    """The Hecke route went past HECKE_MAX_TERMS basis elements."""


def _check_size(element: dict) -> dict:
    if len(element) > HECKE_MAX_TERMS:
        raise _TooManyTerms
    return element


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
    """Add coeff times the diagram to the frontier, merging by key."""
    level = levels[len(crossings)]
    key = _canonical_key(crossings, free_loops)
    if key in level:
        crossings, free_loops, waiting = level[key]
        coeff = waiting + coeff
    level[key] = (crossings, free_loops, coeff)


def _homfly_diagram(d: PlanarDiagram) -> BiLaurent:
    """The skein route."""
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


def _times_generator(element: dict, i: int, sign: int) -> dict:
    """element * T_i^sign in the basis T_w.  Right multiplication by s_i
    swaps the entries i-1 and i of w (one-line form, 0-based); it lowers
    the length exactly when w[i-1] > w[i].  Then T_w = T_ws T_i, so
    T_w T_i = T_ws + z T_w and T_w T_i^-1 = T_ws; otherwise
    T_w T_i = T_ws and T_w T_i^-1 = T_ws - z T_w, as T_i^-1 = T_i - z."""
    out: dict = {}
    for w, c in element.items():
        _add(out, w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:], c)
        if (w[i - 1] > w[i]) == (sign > 0):
            _add(out, w, _Z * c if sign > 0 else -(_Z * c))
    return _check_size(out)


def _ocneanu_trace(element: dict, n: int) -> BiLaurent:
    """F of an element of H_n, descending one level at a time.  With the
    largest entry m-1 of w at index p, w = u s_(m-1) s_(m-2) ... s_(p+1)
    with lengths adding, u in S_(m-1); so F(T_w) = a^-1 F(T_u T_(m-2) ...
    T_(p+1)), or delta F(T_u) when p = m-1."""
    for m in range(n, 1, -1):
        lower: dict = {}
        by_index: dict[int, dict] = {}
        for w, c in element.items():
            p = w.index(m - 1)
            u = w[:p] + w[p + 1:]
            if p == m - 1:
                _add(lower, u, DELTA * c)
            else:
                _add(by_index.setdefault(p, {}), u, _AM1 * c)
        for p, part in by_index.items():
            for g in range(m - 2, p, -1):
                part = _times_generator(part, g, 1)
            for u, c in part.items():
                _add(lower, u, c)
            _check_size(lower)
        element = lower
    return element.get((0,), BiLaurent.zero())


def _homfly_braid(b: BraidWord) -> BiLaurent:
    mirrored = 2 * sum(e < 0 for e in b.letters) > len(b.letters)
    sign = -1 if mirrored else 1
    element = {tuple(range(b.n)): BiLaurent.one()}
    for e in b.letters:
        element = _times_generator(element, abs(e), sign * e)
    P = BiLaurent.monomial(sign * writhe(b), 0) * _ocneanu_trace(element, b.n)
    if mirrored:
        P = BiLaurent({(-r, s): v * (-1) ** s for (r, s), v in P.terms()})
    return P


def homfly(d: "PlanarDiagram | BraidWord",
           max_crossings: int = DEFAULT_MAX_CROSSINGS) -> BiLaurent:
    """HOMFLY polynomial of a braid closure or of an oriented link diagram.
    The limit counts the input's crossings.  A diagram takes the Hecke route
    as the braid vogel.braid_from_pd reads off it, however long; a non-planar
    diagram, and an input the Hecke route cannot hold in HECKE_MAX_TERMS
    basis elements, takes the skein route on the input's diagram."""
    braid = isinstance(d, BraidWord)
    size = len(d.letters) if braid else len(d.crossings)
    if size > max_crossings:
        raise ResourceLimitError(
            f"{size} crossings exceed the limit of {max_crossings}")
    if braid:
        b = d
    else:
        # Imported here: a process given only braids never loads it.
        from .vogel import braid_from_pd
        b = braid_from_pd(d)
    if b is not None:
        try:
            return _homfly_braid(b)
        except _TooManyTerms:
            pass
    return _homfly_diagram(pd_from_braid(d) if braid else d)


def _specialize(P: BiLaurent, a_exp: int, var: str) -> LaurentPoly:
    """Evaluate P at a -> x^a_exp, z -> x - x^-1, with x named var, by the
    Horner pass over z that the module docstring describes."""
    by_power: dict[int, dict[int, int]] = {}
    for (r, s), v in P._c.items():
        coeffs = by_power.setdefault(s, {})
        coeffs[a_exp * r] = coeffs.get(a_exp * r, 0) + v
    s_min = min(by_power, default=0)
    acc: dict[int, int] = {}
    for s in range(max(by_power, default=0), min(s_min, 0) - 1, -1):
        times_z: dict[int, int] = {}
        for e, v in acc.items():
            if v:
                times_z[e + 1] = times_z.get(e + 1, 0) + v
                times_z[e - 1] = times_z.get(e - 1, 0) - v
        for e, v in by_power.get(s, {}).items():
            times_z[e] = times_z.get(e, 0) + v
        acc = times_z
    value = LaurentPoly(acc, var)
    if s_min >= 0:
        return value
    return exact_divide(value, LaurentPoly({1: 1, -1: -1}, var) ** -s_min)


def quantum_sln(P: BiLaurent, N: int, m: int = 1) -> LaurentPoly:
    """One-variable invariant [N]_q * P(q^-N, q - q^-1) in Z[q^+-1]."""
    if N < 2:
        raise ValueError(f"N must be >= 2: {N}")
    if P.z_min() < 1 - m:
        raise ValueError("z-exponents below 1-m: not the polynomial of an "
                         f"{m}-component link")
    return quantum_integer(N) * _specialize(P, -N, "q")


def jones(P: BiLaurent) -> LaurentPoly:
    """Jones polynomial via a -> t, z -> sqrt(t) - 1/sqrt(t).

    Computed in s = sqrt(t).  If only even s-powers occur (always the
    case for knots) the result is reported in t; otherwise in s.
    """
    v = _specialize(P, 2, "s")                  # a = t = s^2
    if all(e % 2 == 0 for e in v.exponents()):
        return LaurentPoly({e // 2: c for e, c in v.terms()}, "t")
    return v


def alexander(P: BiLaurent) -> LaurentPoly:
    """Alexander polynomial of a knot, normalized to an ordinary
    polynomial with nonzero constant term and positive leading
    coefficient."""
    if P.z_min() < 0:
        raise ValueError("negative z-exponents: not a knot polynomial")
    v = _specialize(P, 0, "s")
    if any(e % 2 != 0 for e in v.exponents()):
        raise ValueError("odd half-powers of t: not a knot polynomial")
    t_poly = {e // 2: c for e, c in v.terms()}
    if not t_poly:
        return LaurentPoly.zero("t")
    shift = -min(t_poly)
    t_poly = {e + shift: c for e, c in t_poly.items()}
    if t_poly[max(t_poly)] < 0:
        t_poly = {e: -c for e, c in t_poly.items()}
    return LaurentPoly(t_poly, "t")


def p0_part(P: BiLaurent) -> LaurentPoly:
    """The z-degree-zero coefficient polynomial of a knot's HOMFLY, in a."""
    if P.z_min() < 0:
        raise ValueError("negative z-exponents: not a knot polynomial")
    return LaurentPoly({r: v for (r, s), v in P._c.items() if s == 0}, "a")
