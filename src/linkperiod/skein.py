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

Packed coefficients.  A coefficient is one integer, its value at
z = 2^B (Kronecker substitution, as in statemodel), so z c is c << B and
a cancelled entry is 0.  Each trace level takes a z out and an a^-1 in,
so a^-1 becomes a shift and delta becomes 1 - a^2, a^2 being 2^(B (L+1))
for L letters: the dict keeps one entry per T_w.  The z-degree of a
coefficient plus the length of its w never exceeds L (a letter raises it
by at most one, and the trace turns T_w, of length l(u) + m-1-p, into
z T_u times m-2-p generators), so blocks of L + 1 z-digits do not
overlap.  The sum of the absolute values of all digits at most doubles
per letter and grows at most 2^(m-1)-fold at level m (delta gives two
terms, any other term meets at most m-2 generators), so B, a
laurent.digit_width whose signed digits hold 2^(L + n(n-1)/2), lets
laurent.unpack decode P exactly, once, at the end; a B wider than the
fewest whole bytes only strengthens each bound.

A braid that goes past HECKE_MAX_TERMS takes the skein route
(skeinroute) on a diagram of the same link: the one the caller gives,
such as the PD code the braid was read from, or else the braid's
closure.  homfly imports that module on the first such braid, so a
process whose braids all fit never compiles it.

The quantum, Jones and Alexander specializations take a to a monomial
and z to x - x^-1 by one Horner pass from the top z power down, on one
packed integer: each term is added with one shift, and the factor
x - x^-1 = x^-1 (x^2 - 1) is (acc << 2C) - acc with the lowest exponent
moved down by one, two integer operations whatever the width of the
polynomial.  For k negative z powers the pass runs down to the lowest.
One more shift and subtraction multiplies by x^2N - 1, and one divmod by
(x^2 - 1)^(k+1) leaves x^(N-1) [N]_x times the specialization, in time
linear in N, for laurent.unpack to decode once.  Jones and Alexander
take N = 1, where x^2N - 1 is x^2 - 1 itself: they skip that product
and divide by (x^2 - 1)^k alone, so a knot (k = 0) does not divide.
The span + 1 digits of the Horner result A add up to at most D, the sum
of |c| 2^(s + k) over the HOMFLY terms c a^r z^s.  Write
A = Q (x^2 - 1)^k + R, R of fewer than 2k digits.  A digit of Q sums
those of A with weights at most C(span/2 + k - 1, k - 1), so it is at
most D C(span/2 + k, k), one of Q [N] at most N times that, and C holds
2^(k+1) times this bound.  The dividend is (x^2 - 1)^(k+1) Q [N] +
(x^2 - 1) R [N]; at x = 2^C a prime factor of 2^(2C) - 1 divides [N] as
often as it divides N (by lifting the exponent), so the quotient is
exact only if (2^(2C) - 1)^k divides N R.  A digit of N R, at most
N (D + 2^k times one of Q), is below 2^(C-1), so only R = 0 passes: a
nonzero integer remainder is exactly an inexact quotient.  At N = 1
the same holds with the common factor x^2 - 1 taken out of both sides.

Here x is q for the quantum invariant and s = sqrt(t) for the Jones and
Alexander polynomials; alexander then halves the exponents into t.  A
result is a bare coefficient map: cli names its variable in the report.
"""

from __future__ import annotations

from math import comb

from .diagram import BraidWord, PlanarDiagram, pd_from_braid, writhe
from .laurent import (BiLaurent, InexactDivisionError, LaurentPoly,
                      digit_width, unpack)

#: The most basis elements the Hecke route holds at once; 7! = 5040 keeps
#: every braid on at most 7 strands on that route.
HECKE_MAX_TERMS = 5040

#: delta = (a^-1 - a) z^-1, the value of a 2-component unlink.
DELTA = BiLaurent({(-1, -1): 1, (1, -1): -1})


class _TooManyTerms(Exception):
    """The Hecke route went past HECKE_MAX_TERMS basis elements."""


def _check_size(element: dict) -> dict:
    if len(element) > HECKE_MAX_TERMS:
        raise _TooManyTerms
    return element


def _times_generator(element: dict, i: int, sign: int, width: int,
                     swaps: list[dict]) -> dict:
    """element * T_i^sign in the basis T_w, with z packed as 2^width.
    Right multiplication by s_i swaps the entries i-1 and i of w (one-line
    form, 0-based).  Of a pair w, ws with w[i-1] < w[i], T_ws = T_w T_i is
    the longer; so T_w T_i = T_ws and T_ws T_i = T_w + z T_ws, and as
    T_i^-1 = T_i - z, T_w T_i^-1 = T_ws - z T_w and T_ws T_i^-1 = T_w.
    Each pair is met once, from w, or from ws when w is absent.  swaps[i]
    keeps w -> ws for the rest of the pass."""
    out: dict = {}
    swap = swaps[i]
    for w, c in element.items():
        ws = swap.get(w)
        if ws is None:
            ws = swap[w] = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
            swap[ws] = w
        if w[i - 1] < w[i]:
            short, long = c, element.get(ws, 0)
        elif ws in element:
            continue
        else:
            w, ws, short, long = ws, w, 0, c
        if sign > 0:
            if long:
                out[w] = long
                short = short + (long << width) if short else long << width
            if short:
                out[ws] = short
        else:
            if short:
                out[ws] = short
                long = long - (short << width) if long else -(short << width)
            if long:
                out[w] = long
    return _check_size(out)


def _ocneanu_trace(element: dict, n: int, width: int, block: int,
                   swaps: list[dict]) -> int:
    """(a z)^(n-1) F of an element of H_n, descending one level at a time,
    packed with z as 2^width and a^2 as 2^block.  With the largest entry
    m-1 of w at index p, w = u s_(m-1) s_(m-2) ... s_(p+1) with lengths
    adding, u in S_(m-1); so F(T_w) = a^-1 F(T_u T_(m-2) ... T_(p+1)), or
    delta F(T_u) when p = m-1.  Each level takes a z out of F: a^-1 is
    stored as z, one shift, and delta as 1 - a^2, a subtraction."""
    for m in range(n, 1, -1):
        lower: dict = {}
        by_index: dict[int, dict] = {}
        for w, c in element.items():
            p = w.index(m - 1)
            u = w[:p] + w[p + 1:]
            if p == m - 1:
                lower[u] = c - (c << block)
            else:
                by_index.setdefault(p, {})[u] = c << width
        for p, part in by_index.items():
            for g in range(m - 2, p, -1):
                part = _times_generator(part, g, 1, width, swaps)
            for u, c in part.items():
                if u in lower:
                    c += lower[u]
                    if not c:
                        del lower[u]
                        continue
                lower[u] = c
            _check_size(lower)
        element = lower
    return element.get((0,), 0)


def _homfly_braid(b: BraidWord) -> BiLaurent:
    n, L = b.n, len(b.letters)
    mirrored = 2 * sum(e < 0 for e in b.letters) > L
    sign = -1 if mirrored else 1
    width = digit_width(1 << (L + n * (n - 1) // 2))
    swaps: list[dict] = [{} for _ in range(n)]
    element = {tuple(range(n)): 1}
    for e in b.letters:
        element = _times_generator(element, abs(e), sign * e, width, swaps)
    packed = _ocneanu_trace(element, n, width, (L + 1) * width, swaps)
    a0 = sign * writhe(b) - (n - 1)
    P: dict[tuple[int, int], int] = {}
    for i, v in unpack(packed, width).items():
        j, k = divmod(i, L + 1)         # the digit of a^(2j) z^k
        r, s = a0 + 2 * j, k - (n - 1)
        if mirrored:
            r, v = -r, v * (-1) ** s
        P[(r, s)] = v
    return BiLaurent(P)


def homfly(b: BraidWord, d: PlanarDiagram | None = None) -> BiLaurent:
    """HOMFLY polynomial of the closure of b, by the Hecke route.  A braid
    the route cannot hold in HECKE_MAX_TERMS basis elements takes the skein
    route on d, a diagram of the same link, or on the closure of b when d
    is None.  A PD code passes its own diagram: the braid Vogel's algorithm
    reads off it may have more crossings."""
    try:
        return _homfly_braid(b)
    except _TooManyTerms:
        # Imported here: a process whose braids all fit never loads it.
        from . import skeinroute
        return skeinroute.homfly_diagram(pd_from_braid(b) if d is None else d)


def _specialize(P: BiLaurent, a_exp: int, N: int = 1) -> LaurentPoly:
    """[N]_x times P at a -> x^a_exp, z -> x - x^-1, by the Horner pass
    over z that the module docstring describes."""
    by_power: dict[int, list[tuple[int, int]]] = {}
    for (r, s), v in P._c.items():
        by_power.setdefault(s, []).append((a_exp * r, v))
    top, k = max(by_power, default=0), max(-min(by_power, default=0), 0)
    low = min((e for terms in by_power.values() for e, _ in terms),
              default=0) - (top + k)
    span = max((e + s for s, terms in by_power.items() for e, _ in terms),
               default=0) - low + k
    bound = (sum(abs(v) << (s + k) for (_, s), v in P._c.items())
             * comb(span // 2 + k, k) * N)
    width = digit_width(bound << (k + 1))
    acc = 0
    for s in range(top, -k - 1, -1):
        acc = (acc << 2 * width) - acc
        for e, v in by_power.get(s, ()):
            acc += v << width * (e - low - s - k)
    power = k
    if N > 1:
        acc = (acc << 2 * width * N) - acc    # times x^(N-1) [N]_x (x^2 - 1)
        power += 1
    if power:
        acc, rest = divmod(acc, ((1 << 2 * width) - 1) ** power)
        if rest:
            raise InexactDivisionError("quotient is not a Laurent polynomial")
    return LaurentPoly(unpack(acc, width, low + k - (N - 1)))


def quantum_sln(P: BiLaurent, N: int, m: int = 1) -> LaurentPoly:
    """One-variable invariant [N]_q * P(q^-N, q - q^-1) in Z[q^+-1]."""
    if N < 2:
        raise ValueError(f"N must be >= 2: {N}")
    if P.z_min() < 1 - m:
        raise ValueError("z-exponents below 1-m: not the polynomial of an "
                         f"{m}-component link")
    return _specialize(P, -N, N)


def jones(P: BiLaurent) -> LaurentPoly:
    """Jones polynomial V(s) = P(s^2, s - s^-1) in s = sqrt(t).  For an
    m-component link every exponent is congruent to m - 1 mod 2."""
    return _specialize(P, 2)


def alexander(P: BiLaurent) -> LaurentPoly:
    """Alexander polynomial of a knot in t, normalized to an ordinary
    polynomial with nonzero constant term and positive leading
    coefficient."""
    if P.z_min() < 0:
        raise ValueError("negative z-exponents: not a knot polynomial")
    v = _specialize(P, 0)
    if any(e % 2 != 0 for e in v.exponents()):
        raise ValueError("odd half-powers of t: not a knot polynomial")
    t_poly = {e // 2: c for e, c in v.terms()}
    if not t_poly:
        return LaurentPoly.zero()
    shift = -min(t_poly)
    t_poly = {e + shift: c for e, c in t_poly.items()}
    if t_poly[max(t_poly)] < 0:
        t_poly = {e: -c for e, c in t_poly.items()}
    return LaurentPoly(t_poly)


def p0_part(P: BiLaurent) -> LaurentPoly:
    """The z-degree-zero coefficient polynomial of a knot's HOMFLY, in a."""
    if P.z_min() < 0:
        raise ValueError("negative z-exponents: not a knot polynomial")
    return LaurentPoly({r: v for (r, s), v in P._c.items() if s == 0})
