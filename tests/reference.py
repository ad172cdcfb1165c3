"""Reference code the tests compare the library against.

Two references check the state-sum oracle (`statemodel.brackets`).  The
whole-state enumerator lists every valid arc labelling of a braid
closure with the local rule at each crossing, exponentially many in the
crossing count, so it serves small braids only.  `slot_bracket` is a
transfer pass per N keyed by labels and slot permutation: it starts from
all N^n labellings and reads the norm of a closed state off the cycles
of its permutation, so it shares neither the rank patterns nor the
closing factor of the library pass.  `parity_split` feeds
the ideal-algebra tests.  `all_tuple_link_candidates` checks
`criteria.link_candidates` by trying every one of the p^m psi-tuples,
and `all_k_plus_candidates` checks the quantum-plus criterion of
`criteria.knot_candidates` by reducing each of the 2p signed candidate
sums with `reduce_plus`, the fold modulo (p, q^p + 1) that the library
does not have: it runs that criterion on +-f(-q) modulo (p, q^p - 1).
The ideal-algebra tests use `reduce_plus` too, and `reduce_2p`, the fold
modulo (p, q^2p - 1), which also checks that the Jones test of a link's
polynomial in s = sqrt(t) needs only the library's period p.
`termwise_specialize` checks the Horner pass of `skein._specialize` by
substituting into every HOMFLY term on its own, and clears negative z
powers by `exact_divide`, a long division of Laurent polynomials.
`hecke_homfly` checks the packed Hecke-algebra route of
`skein._homfly_braid`: the same Morton-Short pass with one `BiLaurent`
per basis element, built term by term.  `murasugi_by_powers`
checks `classical.murasugi_candidates` by dividing Delta and -Delta by
Phi_lambda^(p-1), raised by square-and-multiply, and testing that the
quotient is a polynomial in t^p.  `p0_by_residues` checks the
coefficient-jump test of `classical.traczyk_p0_candidates`, which reads
its answer off the jump set, by testing every residue against the jumps.
`braid_segments` merges the (row, slot) cells of a braid closure into
arcs with a union-find over all k·n cells; `segment_pd` builds the
closure's diagram on it, and checks the one pass over the letters of
`diagram.pd_from_braid`.  The whole-state enumerator reads its arcs
from `braid_segments` too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from linkperiod import criteria, skein, skeinroute, statemodel
from linkperiod.diagram import (BraidWord, Crossing, PlanarDiagram,
                               _arc_cycles, closure_components, writhe)
from linkperiod.laurent import (BiLaurent, InexactDivisionError, LaurentPoly,
                                reduce)


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


def _slot_transfer(table: dict, e: int) -> dict:
    """The (L0, pos) table after letter e: every entry moves to at most two."""
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


def slot_bracket(b: BraidWord, N: int) -> LaurentPoly:
    """The state sum at one N by a transfer pass keyed by (L0, pos): L0[s]
    is the label a state gives bottom slot s, and pos[s] the bottom slot
    whose strand fills slot s after the flat crossings read so far.  At
    the top it keeps the entries whose labels are back in their starting
    slots; the cycles of pos are then the spliced loops.  At most
    N^n * n! entries on n strands."""
    ident = tuple(range(b.n))
    table = {(L0, ident): {0: 1}
             for L0 in itertools.product(statemodel.labels_range(N), repeat=b.n)}
    for e in b.letters:
        table = _slot_transfer(table, e)
    total: dict[int, int] = {}
    for (L0, pos), w in table.items():
        if all(L0[t] == L0[s] for s, t in enumerate(pos)):
            _add(total, w, _loop_norm(L0, pos))
    return LaurentPoly(total)


def strand_component(b: BraidWord) -> dict[int, int]:
    """Map 1-based strand index -> component index (into closure_components)."""
    out = {}
    for ci, comp in enumerate(closure_components(b)):
        for s in comp:
            out[s] = ci
    return out


def all_tuple_link_candidates(inv: LaurentPoly, p: int, N: int,
                              m: int) -> frozenset:
    """Every psi in {0..p-1}^m whose candidate sum is congruent to inv mod
    (p, q^p - 1), found by trying all p^m tuples.  Reduction is a ring
    map, so the reduced sums are built one coordinate at a time, each step
    multiplying by the reduced rhs_sum of one coordinate."""
    def reduced(f: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(reduce(f, p))

    factors = [reduced(criteria.rhs_sum(N, (k,))) for k in range(p)]
    table = {(): LaurentPoly.one()}
    for _ in range(m):
        table = {psi + (k,): reduced(f * factors[k])
                 for psi, f in table.items() for k in range(p)}
    target = reduced(inv)
    return frozenset(psi for psi, f in table.items() if f == target)


def reduce_plus(f: LaurentPoly, p: int) -> dict[int, int]:
    """f modulo (p, q^p + 1), in the form of `laurent.reduce`: each
    exponent e goes to e mod p, its coefficient negated once for each p
    it drops (q^p = -1), and coefficients are taken mod p."""
    c: dict[int, int] = {}
    for e, v in f.terms():
        c[e % p] = c.get(e % p, 0) + (-v if e // p % 2 else v)
    return {e: v % p for e, v in c.items() if v % p}


def reduce_2p(f: LaurentPoly, p: int) -> dict[int, int]:
    """f modulo (p, q^2p - 1), in the form of `laurent.reduce`: exponents
    mod 2p, coefficients mod p."""
    c: dict[int, int] = {}
    for e, v in f.terms():
        c[e % (2 * p)] = c.get(e % (2 * p), 0) + v
    return {e: v % p for e, v in c.items() if v % p}


def all_k_plus_candidates(inv: LaurentPoly, p: int, N: int) -> frozenset:
    """Every (k, sign), k in 0..2p-1, with sign * [N]_{q^k} congruent to
    inv mod (p, q^p + 1), found by trying all 2p values of k."""
    target = reduce_plus(inv, p)
    hits = set()
    for k in range(2 * p):
        rhs = criteria.rhs_sum(N, (k,))
        if reduce_plus(rhs, p) == target:
            hits.add((k, "+"))
        if reduce_plus(-rhs, p) == target:
            hits.add((k, "-"))
    return frozenset(hits)


def exact_divide(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Return h with h * g == f, or raise if no Laurent polynomial works.

    Division by zero raises ZeroDivisionError; an inexact quotient raises
    InexactDivisionError.
    """
    if g.is_zero():
        raise ZeroDivisionError("division of Laurent polynomial by zero")
    if f.is_zero():
        return LaurentPoly.zero()

    # Long division from the top degree; exactness forces leading-term
    # divisibility at every step, and the leading term then cancels.
    rem = dict(f._c)
    g_top = g.max_exponent()
    g_lead = g._c[g_top]
    g_items = list(g._c.items())
    # An exact quotient h has min exponent f_min - g_min; going below
    # that means the division cannot terminate.
    qe_floor = f.min_exponent() - g.min_exponent()
    quot: dict[int, int] = {}
    while rem:
        top = max(rem)
        lead = rem[top]
        if lead % g_lead != 0:
            raise InexactDivisionError("quotient is not a Laurent polynomial")
        qc = lead // g_lead
        qe = top - g_top
        if qe < qe_floor:
            raise InexactDivisionError("quotient is not a Laurent polynomial")
        quot[qe] = qc
        for e, v in g_items:
            k = e + qe
            nv = rem.get(k, 0) - qc * v
            if nv:
                rem[k] = nv
            else:
                rem.pop(k, None)
    return LaurentPoly(quot)


def termwise_specialize(P: BiLaurent, a_image: LaurentPoly,
                        z_image: LaurentPoly) -> LaurentPoly:
    """Evaluate P at a -> a_image, z -> z_image one term at a time, each
    times its power of z_image from a table built by repeated
    multiplication; negative z powers are cleared by exact division by
    z_image."""
    s_min = min((s for (_, s) in P._c), default=0)
    powers = [LaurentPoly.one()]
    for _ in range(max((s for (_, s) in P._c), default=0) - s_min):
        powers.append(powers[-1] * z_image)
    shifted = LaurentPoly.zero()
    for (r, s), v in P._c.items():
        term = a_image.compose_power(r) if r != 0 else LaurentPoly.one()
        shifted = shifted + (term * powers[s - s_min]).scale(v)
    if s_min >= 0:
        return shifted * (z_image ** s_min)
    return exact_divide(shifted, z_image ** (-s_min))


_Z = BiLaurent.monomial(0, 1)        # z
_AM1 = BiLaurent.monomial(-1, 0)     # a^-1


def _times_generator(element: dict, i: int, sign: int) -> dict:
    """element * T_i^sign in the basis T_w, one BiLaurent per w."""
    out: dict = {}
    for w, c in element.items():
        skeinroute._add(out, w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:], c)
        if (w[i - 1] > w[i]) == (sign > 0):
            skeinroute._add(out, w, _Z * c if sign > 0 else -(_Z * c))
    return out


def _ocneanu_trace(element: dict, n: int) -> BiLaurent:
    """F of an element of H_n: F(T_w) = a^-1 F(T_u T_(m-2) ... T_(p+1))
    with m-1 at index p of w, or delta F(T_u) when p = m-1."""
    for m in range(n, 1, -1):
        lower: dict = {}
        for w, c in element.items():
            p = w.index(m - 1)
            u = w[:p] + w[p + 1:]
            if p == m - 1:
                skeinroute._add(lower, u, skein.DELTA * c)
                continue
            part = {u: _AM1 * c}
            for g in range(m - 2, p, -1):
                part = _times_generator(part, g, 1)
            for v, d in part.items():
                skeinroute._add(lower, v, d)
        element = lower
    return element.get((0,), BiLaurent.zero())


def hecke_homfly(b: BraidWord) -> BiLaurent:
    """HOMFLY of the braid closure by the Hecke-algebra route with
    BiLaurent coefficients, the braid taken as given (not mirrored)."""
    element = {tuple(range(b.n)): BiLaurent.one()}
    for e in b.letters:
        element = _times_generator(element, abs(e), e)
    return BiLaurent.monomial(writhe(b), 0) * _ocneanu_trace(element, b.n)


def gf_trim(a: list[int]) -> list[int]:
    """a without its top zero coefficients, in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b over the field of p elements, term by term."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return gf_trim(out)


def gf_divmod(a: list[int], b: list[int], p: int):
    """(quotient, remainder) of a by b over the field of p elements."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p) if p > 2 else b[-1]
    while len(a) >= len(b) and gf_trim(a):
        shift = len(a) - len(b)
        coef = (a[-1] * inv_lead) % p
        q[shift] = coef
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * y) % p
        gf_trim(a)
    return gf_trim(q), gf_trim(a)


def gf_pow(a: list[int], n: int, p: int) -> list[int]:
    """a^n over the field of p elements, by square-and-multiply."""
    out = [1]
    base = list(a)
    while n:
        if n & 1:
            out = gf_mul(out, base, p)
        base = gf_mul(base, base, p)
        n >>= 1
    return out


def murasugi_by_powers(delta: LaurentPoly, p: int) -> frozenset[int] | None:
    """Every lambda prime to p with Delta = +-f^p * Phi_lambda^(p-1) mod p,
    or None when Delta vanishes mod p."""
    if delta.is_zero():
        return None
    shift = -delta.min_exponent()
    dense = [0] * (delta.max_exponent() + shift + 1)
    for e, c in delta.terms():
        dense[e + shift] = c % p
    dense = gf_trim(dense)
    if not dense:
        return None
    while dense and dense[0] == 0:
        dense.pop(0)

    d = len(dense) - 1
    feasible = set()
    for lam in range(1, d // (p - 1) + 2):
        if math.gcd(lam, p) != 1:
            continue
        phi_pow = gf_pow([1] * lam, p - 1, p)
        for unit in (1, p - 1):
            target = [(unit * c) % p for c in dense]
            quot, rem = gf_divmod(target, phi_pow, p)
            if rem:
                continue
            if all(c == 0 for i, c in enumerate(quot) if i % p != 0):
                feasible.add(lam)
                break
    return frozenset(feasible)


def p0_by_residues(P0: LaurentPoly, p: int) -> frozenset[int]:
    """Every residue lambda mod p whose pair {lambda, -lambda} holds each
    jump of the z-degree-zero part, tested one residue at a time."""
    if P0.is_zero():
        return frozenset(range(p))
    jumps = set()
    for e in range(P0.min_exponent() - 2, P0.max_exponent() + 1, 2):
        if (P0.coeff(e) - P0.coeff(e + 2)) % p != 0:
            jumps.add((e + 1) % p)
    return frozenset(lam for lam in range(p)
                     if jumps <= {lam % p, (-lam) % p})


def parity_split(f: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Split f into its even-exponent and odd-exponent parts."""
    even = {e: v for e, v in f.terms() if e % 2 == 0}
    odd = {e: v for e, v in f.terms() if e % 2 != 0}
    return LaurentPoly(even), LaurentPoly(odd)


def braid_segments(b: BraidWord):
    """Arc structure of the trace closure of a braid.

    Rows 0..k-1 are the horizontal levels between crossings (row i feeds
    crossing i; outputs land in row (i+1) mod k, the closure identifying
    row k with row 0).  Segments untouched by a crossing at a level are
    merged across it.  Returns (arc_of, crossing_slots) where arc_of maps
    (row, slot) -> arc id (0-based, dense) and crossing_slots[i] is the
    1-based left slot of crossing i.
    """
    k = len(b.letters)
    n = b.n
    if k == 0:
        return {}, []
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    crossing_slots = []
    for i, e in enumerate(b.letters):
        j = abs(e)
        crossing_slots.append(j)
        for s in range(1, n + 1):
            if s not in (j, j + 1):
                union((i, s), ((i + 1) % k, s))
    arc_of = {}
    next_id = 0
    for i in range(k):
        for s in range(1, n + 1):
            r = find((i, s))
            if r not in arc_of:
                arc_of[r] = next_id
                next_id += 1
    return {key: arc_of[find(key)] for i in range(k) for s in range(1, n + 1)
            for key in [(i, s)]}, crossing_slots


def segment_pd(b: BraidWord) -> PlanarDiagram:
    """`diagram.pd_from_braid` built on `braid_segments`: read the four
    arcs of each crossing off the (row, slot) cells, then renumber."""
    k = len(b.letters)
    if k == 0:
        return PlanarDiagram((), b.n)
    arc_of, slots = braid_segments(b)
    num_arcs = max(arc_of.values()) + 1
    raw = []
    for i, e in enumerate(b.letters):
        j = slots[i]
        in_l = arc_of[(i, j)]
        in_r = arc_of[(i, j + 1)]
        out_l = arc_of[((i + 1) % k, j)]
        out_r = arc_of[((i + 1) % k, j + 1)]
        if e > 0:
            raw.append(Crossing(1, under_in=in_r, over_in=in_l,
                                under_out=out_l, over_out=out_r))
        else:
            raw.append(Crossing(-1, under_in=in_l, over_in=in_r,
                                under_out=out_r, over_out=out_l))

    # Renumber arcs 1, 2, ... consecutively along components.
    number = {a: i for i, a in
              enumerate((a for cyc in _arc_cycles(raw) for a in cyc), 1)}
    crossings = tuple(
        Crossing(c.sign, number[c.under_in], number[c.over_in],
                 number[c.under_out], number[c.over_out])
        for c in raw
    )
    # Strands crossed by no letter close up into crossing-free loops.
    free = num_arcs - len(number)
    return PlanarDiagram(crossings, free)


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
    values = statemodel.labels_range(N)
    labels: list[int | None] = [None] * num_arcs
    rules: list[int] = [0] * len(quads)
    produced = 0

    def fill_free(fi: int):
        nonlocal produced
        if fi == len(free):
            produced += 1
            if produced > max_states:
                raise statemodel.StateResourceError(
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
                     max_states: int = 2_000_000) -> list[NState]:
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
