"""Congruence criteria for link periodicity from the quantum invariant.

A p-periodic link forces its quantum invariant to be congruent, modulo
(p, q^p - 1), to a candidate sum determined by the linking numbers of
its components with the rotation axis; modulo (p, q^p + 1) the same
holds up to sign.  Checking every candidate and finding none certifies
non-periodicity.

Every candidate function returns a plain frozenset: residues k mod p
(knots), (k, sign) pairs (knots, quantum-plus) or psi-tuples of residues
(links).  The empty set reads "not p-periodic".

Modulo (p, q^p - 1) the candidate sum of psi is the product of the
residues r_k of [N]_{q^k} over its coordinates k = psi_j, and r_{-k} =
r_k because [N]_q is symmetric under q -> q^-1.  `quantum_residue`
builds one r_k from the labels I_N, in O(N), as a sparse map from
exponent mod p to nonzero coefficient, the form `laurent.reduce`
returns, of at most N terms.

Moments.  For odd p, q -> 1 + u is a ring map from F_p[q]/(q^p - 1)
onto F_p[u]/(u^3), because (1 + u)^p = 1 + u^p.  It sends q^e to
1 + e u + C(e, 2) u^2 for every integer e, so the target goes to
t0 + t1 u + t2 u^2, with t0, t1 and t2 the sums of c_e, c_e e and
c_e C(e, 2) over its terms c_e q^e, e in 0..p-1.  Over I_N the labels
sum to 0 and their squares to N(N^2 - 1)/3, so r_k goes to
N + sigma k^2 u^2, sigma = (N - 1)N(N + 1)/6, and a product of m
residues to N^m + c (sum_j k_j^2) u^2, c = N^(m-1) sigma.  A ring map
keeps every congruence, so a tuple can match only if t0 = N^m, t1 = 0
and c sum_j k_j^2 = t2 mod p; `_last_coordinates` reads these off the
target.  If t0 or t1 fails, or c = 0 and t2 != 0, nothing matches and
no residue is built.  If c != 0, the other coordinates fix k_m^2 =
t2/c - sum_(j<m) k_j^2, and k_m is its one square root in 0..p//2
(`_sqrt`, by Tonelli-Shanks) or there is none.  Only tuples that
cannot match are dropped; the exact comparison still decides.  The
moments fix no sum of squares, and every k is tried, at p = 2 (no such
map) and where c = 0 mod p: N = 0 or +-1 mod p for p > 3 (mod 9 for
p = 3), or N = 0 mod p with m >= 2.

The walk.  The product does not depend on the order of the
components, so the set of matching tuples is closed under permuting
coordinates and under negating any one of them, and every orbit has
exactly one non-decreasing representative in {0..p//2}^m.  `_matches`,
the one search of both criteria, walks those representatives depth
first, sharing each prefix product; a knot is the m = 1 case, and
`link_candidates` expands each hit into its orbit.  Each of the
C(p//2 + m - 1, m - 1) prefixes of m - 1 coordinates is offered the
last coordinate that the moments leave, and its product is formed only
when that root exists and is at least the prefix's last coordinate.
At the last coordinate an O(N) probe computes one coefficient of
prefix * r_k, at the target's lowest exponent, and the product is
formed only when it matches; with no prefix (m = 1) r_k is compared
with the target directly, so a knot costs O(N + log^2 p) per N where
the moments pin k, and O(p * N) where they leave every k.  At p = 41,
m = 4, N = 2 the 1,771 prefixes leave 261 probes and 493 products in
F_p[q]/(q^p - 1); offered every last coordinate, as where the moments
fix nothing, the walk makes C(p//2 + m, m) = 10,626 probes and 2,022
products, and p^m = 2,825,761.  The walk builds each r_k where it
reads it, with `quantum_residue`, and keeps none between nodes: a knot
holds one residue at a time, and a link the residues and prefix
products of one path, m of each, not a table of p//2 + 1 residues.
`_matches` refuses N < 2 before any answer, for both criteria.

Work limit.  A link's search refuses, with ResourceLimitError, on the two
counts it spends, each against `laurent.MAX_WORK` read at call time: the
C(p//2 + m, m) representatives it tests, before any residue is built,
and the distinct tuples of the matching orbits, after the search and
before any orbit is expanded.  An orbit whose coordinates take each
value v c_v times holds m!/prod c_v! orderings, times 2 for each
coordinate k with k != -k mod p, and is expanded one ordering at a
time, so each tuple is formed once.  So the component count has no
bound of its own, and a link's p is bounded by the first count: m = 2,
3 and 4 are refused from p = 4001, 457 and 163.

For odd p, q -> -q is a ring isomorphism from F_p[q]/(q^p + 1) onto
F_p[q]/(q^p - 1) that sends [N]_{q^k} to (-1)^{k(N-1)} [N]_{q^k}.  So
the quantum-plus criterion for f is the same walk on each of +-f(-q),
with its own moments: a match at k stands for k, -k, k + p and -k + p,
with the sign flipped when k(N-1) is odd.  The two targets' t0 are
negatives, so both pass the t0 test only where N = 0 mod p; the moments
then fix no k, and each walk builds all p//2 + 1 residues, so each
is built twice.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from math import comb, factorial

from . import laurent
from .laurent import (LaurentPoly, ResourceLimitError, is_prime,
                      quantum_integer, reduce)


def rhs_sum(N: int, lambdas: tuple[int, ...]) -> LaurentPoly:
    """Candidate polynomial: product over components j of
    sum over I in I_N of q^(lambda_j * I)."""
    if N < 2:
        raise ValueError(f"N must be >= 2: {N}")
    if len(lambdas) < 1:
        raise ValueError("need at least one component")
    out = LaurentPoly.one()
    for lam in lambdas:
        out = out * quantum_integer(N).compose_power(lam)
    return out


def knot_candidates(inv: LaurentPoly, p: int, N: int,
                    plus: bool = False) -> frozenset:
    """Linking numbers whose candidate sum is congruent to the knot invariant.

    Modulo (p, q^p - 1) these are residues k in 0..p-1 (p = 2 allowed).
    With `plus`, modulo (p, q^p + 1) for odd p, they are (k, sign) pairs,
    k in 0..2p-1 and sign "+" or "-".  An empty result reads "not
    p-periodic".
    """
    if not is_prime(p) or plus and p == 2:
        raise ValueError(
            f"p must be {'an odd prime' if plus else 'prime'}: {p}")
    if not plus:
        return frozenset(x for (k,) in _matches(reduce(inv, p), p, N, 1)
                         for x in (k, -k % p))
    target = reduce(LaurentPoly({e: -c if e % 2 else c  # f(-q)
                                 for e, c in inv.terms()}), p)
    hits = [(k, s) for s, t in ((1, target),
                                (-1, {e: p - c for e, c in target.items()}))
            for (k,) in _matches(t, p, N, 1)]
    # A match with s f(-q) reads sign s, flipped when i(N-1) is odd.
    return frozenset((i, "+" if (s > 0) == (i * (N - 1) % 2 == 0) else "-")
                     for k, s in hits
                     for i in (k, -k % p, k + p, -k % p + p))


def link_candidates(inv: LaurentPoly, p: int, N: int, m: int) -> frozenset:
    """All tuples psi in {0..p-1}^m whose candidate sum matches the link
    invariant mod (p, q^p - 1); empty means "not p-periodic".  The walk
    (module docstring) finds the non-decreasing tuples over {0..p//2}
    that match, and each is expanded into its orbit.  Past the work limit
    (module docstring) it raises ResourceLimitError."""
    if not is_prime(p):
        raise ValueError(f"p must be prime: {p}")
    if m < 1:
        raise ValueError("need at least one component")
    orbits = comb(p // 2 + m, m)
    if orbits > laurent.MAX_WORK:
        raise ResourceLimitError(
            f"{orbits} orbits to test, C(p//2 + m, m) at p={p}, m={m}, "
            f"exceed the work limit of {laurent.MAX_WORK}")
    hits = _matches(reduce(inv, p), p, N, m)
    tuples = sum(_orbit_size(ks, p) for ks in hits)
    if tuples > laurent.MAX_WORK:
        raise ResourceLimitError(
            f"{len(hits)} matching orbits of {tuples} tuples in all at "
            f"p={p}, m={m} exceed the work limit of {laurent.MAX_WORK}")
    return frozenset(t for ks in hits for order in _orderings(ks)
                     for t in itertools.product(*({k, -k % p} for k in order)))


def _matches(target: dict[int, int], p: int, N: int,
             m: int) -> list[tuple[int, ...]]:
    """The non-decreasing m-tuples over 0..p//2 whose product of residues
    equals target, in the walk's order (module docstring)."""
    if N < 2:
        raise ValueError(f"N must be >= 2: {N}")
    lasts = _last_coordinates(target, p, N, m)
    if not lasts:
        return []
    probe = min(target, default=0)
    want = target.get(probe, 0)
    hits: list[tuple[int, ...]] = []

    def extend(prefix: dict[int, int], ks: tuple[int, ...], s: int,
               last) -> None:
        """prefix: the product of the residues of ks; s: the sum of their
        squares; last: the last coordinates to try once m - 1 are set."""
        if len(ks) == m - 1:
            for k in last:
                r = quantum_residue(p, N, k)
                if ks and sum(prefix.get((probe - d) % p, 0) * c
                              for d, c in r.items()) % p != want:
                    continue
                if (_cyclic_product(prefix, r, p) if ks else r) == target:
                    hits.append(ks + (k,))
            return
        for k in range(ks[-1] if ks else 0, p // 2 + 1):
            tail = len(ks) < m - 2 or lasts(s + k * k, k)
            if tail:
                r = quantum_residue(p, N, k)
                extend(_cyclic_product(prefix, r, p) if ks else r,
                       ks + (k,), s + k * k, tail)

    extend({0: 1}, (), 0, m > 1 or lasts(0, 0))
    return hits


def _last_coordinates(target: dict[int, int], p: int, N: int, m: int):
    """lasts(s, lo): the k in lo..p//2 that can end an m-tuple matching
    target when its other coordinates' squares sum to s, read off the
    moments t0, t1, t2 (module docstring): every k when the moments fix
    no sum of squares, else the one square root they leave.  None when
    no tuple can match."""
    def every(s: int, lo: int) -> range:
        return range(lo, p // 2 + 1)
    if p == 2:
        return every
    t0 = t1 = t2 = 0
    for e, c in target.items():
        t0, t1, t2 = t0 + c, t1 + c * e, t2 + c * (e * (e - 1) >> 1)
    c = pow(N, m - 1, p) * ((N - 1) * N * (N + 1) // 6) % p
    if (t0 - pow(N, m, p)) % p or t1 % p or not c and t2 % p:
        return None
    if not c:
        return every
    squares = t2 * pow(c, -1, p)

    def lasts(s: int, lo: int) -> tuple[int, ...]:
        k = _sqrt(squares - s, p)
        return (k,) if k is not None and k >= lo else ()
    return lasts


def _sqrt(a: int, p: int) -> int | None:
    """The square root of a mod an odd prime p in 0..p//2, or None when a
    is not a square: Euler's criterion, then Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while not q & 1:
        q, s = q >> 1, s + 1
    t, r = pow(a, q, p), pow(a, (q + 1) >> 1, p)
    if pow(t, 1 << (s - 1), p) != 1:        # a^((p - 1)/2)
        return None
    if t != 1:
        z = 2
        while pow(z, p >> 1, p) != p - 1:
            z += 1
        c = pow(z, q, p)
    while t != 1:
        i, u = 1, t * t % p
        while u != 1:
            i, u = i + 1, u * u % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def _orbit_size(ks: tuple[int, ...], p: int) -> int:
    """The tuples in the orbit of ks: its m!/prod c_v! orderings (c_v
    the multiplicity of v), times 2 for each coordinate k with
    k != -k mod p."""
    size = factorial(len(ks))
    for v in set(ks):
        size //= factorial(ks.count(v))
    return size << sum(k != -k % p for k in ks)


def _orderings(ks: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every distinct ordering of ks, once each: each distinct value
    first, before each ordering of the rest."""
    if not ks:
        yield ()
    for v in set(ks):
        i = ks.index(v)
        for rest in _orderings(ks[:i] + ks[i + 1:]):
            yield (v,) + rest


def quantum_residue(p: int, N: int, k: int) -> dict[int, int]:
    """r_k, the residue of [N]_{q^k} mod (p, q^p - 1): k * I mod p ->
    multiplicity mod p over I in I_N, zeros dropped."""
    r: dict[int, int] = {}
    for label in range(-N + 1, N, 2):
        e = k * label % p
        r[e] = r.get(e, 0) + 1
    return {e: c % p for e, c in r.items() if c % p}


def _cyclic_product(f: dict[int, int], g: dict[int, int],
                    p: int) -> dict[int, int]:
    """f * g in F_p[q]/(q^p - 1), each a map from exponent mod p to
    nonzero coefficient."""
    out: dict[int, int] = {}
    for e, c in f.items():
        for d, b in g.items():
            i = (e + d) % p
            out[i] = (out.get(i, 0) + c * b) % p
    return {e: c for e, c in out.items() if c}


def possible_linking(sets: list[frozenset]) -> frozenset[int]:
    """Residues in every given (p, q^p - 1) candidate set (one per tested N);
    each set is closed under k -> -k.  Empty means "not p-periodic"."""
    if not sets:
        raise ValueError("need candidate sets for at least one N")
    return frozenset(sets[0]).intersection(*sets)


def lower_bound(inv: LaurentPoly, N: int) -> int | None:
    """Bound n such that the knot is not p-periodic for every odd prime
    p >= n, or None when the invariant matches a candidate sum exactly
    (the hypothesis fails).

    n = 1 + max(prime divisors of the coefficients, 2 * max |exponent|);
    "degree" of a Laurent polynomial is read as its largest absolute
    exponent.
    """
    for k in range(0, inv.max_abs_exponent() + 2):
        if inv == rhs_sum(N, (k,)):
            return None
    primes: set[int] = set()
    for _, c in inv.terms():
        c = abs(c)
        d = 2
        while d * d <= c:
            if c % d == 0:
                primes.add(d)
                while c % d == 0:
                    c //= d
            d += 1
        if c > 1:
            primes.add(c)
    return 1 + max(primes | {2 * inv.max_abs_exponent()})
