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
r_k because [N]_q is symmetric under q -> q^-1.  `quantum_residues`
builds r_k for k = 0..p//2 from the labels I_N, one at a time, as a
sparse map from exponent mod p to nonzero coefficient, the form
`laurent.reduce` returns, of at most N terms.  It is the one place that
builds I_N, and so the one place that refuses N < 2, for both criteria.
A knot has one coordinate: `knot_candidates` scans the residues once, in
order, and keeps k and -k for each r_k equal to the target, in O(p * N)
time, forming no product and holding one residue at a time.

A link's product does not depend on the order of the components, so the
set of matching tuples is closed under permuting coordinates and under
negating any one of them, and every orbit has exactly one non-decreasing
representative in {0..p//2}^m.  `link_candidates` keeps the p//2 + 1
residues and walks those representatives depth first from each r_k,
sharing each prefix product, and expands each hit into its orbit.  At
the last coordinate an O(N) probe computes one coefficient of prefix *
r_k, at the target's lowest exponent, and the product is formed only
when it matches.  So the C(p//2 + m, m) representatives cost at most as
many probes and fewer than C(p//2 + m, m - 1) products in
F_p[q]/(q^p - 1), plus one per hit: at p = 41, m = 4, 10,626 probes and
2,022 products, where p^m = 2,825,761.

Work limit.  A link's search refuses, with ResourceLimitError, on the two
counts it spends, each against `laurent.MAX_WORK` read at call time: the
C(p//2 + m, m) representatives it tests, before any residue is built,
and the 2^m * m! tuples it lists per matching orbit, after the search and
before any orbit is expanded.  So the component count has no bound of
its own, and a link's p is bounded by the first count: m = 2, 3 and 4
are refused from p = 4001, 457 and 163.

For odd p, q -> -q is a ring isomorphism from F_p[q]/(q^p + 1) onto
F_p[q]/(q^p - 1) that sends [N]_{q^k} to (-1)^{k(N-1)} [N]_{q^k}.  So
the quantum-plus criterion for f is the same scan with +-f(-q) as the
two targets: a match at k stands for k, -k, k + p and -k + p, with the
sign flipped when k(N-1) is odd.
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
        target = reduce(inv, p)
        return frozenset(x for k, r in enumerate(quantum_residues(p, N))
                         if r == target for x in (k, -k % p))
    target = reduce(LaurentPoly({e: -c if e % 2 else c  # f(-q)
                                 for e, c in inv.terms()}), p)
    negated = {e: p - c for e, c in target.items()}
    # A match with s f(-q) reads sign s, flipped when i(N-1) is odd.
    return frozenset((i, "+" if (s > 0) == (i * (N - 1) % 2 == 0) else "-")
                     for k, r in enumerate(quantum_residues(p, N))
                     for s, t in ((1, target), (-1, negated)) if r == t
                     for i in (k, -k % p, k + p, -k % p + p))


def link_candidates(inv: LaurentPoly, p: int, N: int, m: int) -> frozenset:
    """All tuples psi in {0..p-1}^m whose candidate sum matches the link
    invariant mod (p, q^p - 1); empty means "not p-periodic".  One orbit
    search (module docstring) tests the non-decreasing tuples over
    {0..p//2} and expands each hit into its orbit.  Past the work limit
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
    target = reduce(inv, p)
    residues = list(quantum_residues(p, N))
    probe = min(target, default=0)
    want = target.get(probe, 0)
    probes = [[((probe - d) % p, c) for d, c in r.items()] for r in residues]
    hits: list[tuple[int, ...]] = []

    def extend(prefix: dict[int, int], ks: tuple[int, ...]) -> None:
        if len(ks) == m:
            if prefix == target:
                hits.append(ks)
            return
        last = len(ks) == m - 1
        for k in range(ks[-1], len(residues)):
            if last and sum(prefix.get(e, 0) * c
                            for e, c in probes[k]) % p != want:
                continue
            extend(_cyclic_product(prefix, residues[k], p), ks + (k,))

    for k, r in enumerate(residues):
        extend(r, (k,))
    tuples = len(hits) * 2 ** m * factorial(m)
    if tuples > laurent.MAX_WORK:
        raise ResourceLimitError(
            f"{len(hits)} matching orbits of up to 2^m * m! tuples at m={m}, "
            f"{tuples} in all, exceed the work limit of {laurent.MAX_WORK}")
    return frozenset(perm for ks in hits
                     for t in itertools.product(*({k, -k % p} for k in ks))
                     for perm in itertools.permutations(t))


def quantum_residues(p: int, N: int) -> Iterator[dict[int, int]]:
    """r_k, the residue of [N]_{q^k} mod (p, q^p - 1), for k = 0..p//2 in
    order: k * I mod p -> multiplicity mod p over I in I_N, zeros dropped.
    Yielded one at a time, so a knot's scan holds one of them at a time;
    N < 2 raises on the first one."""
    if N < 2:
        raise ValueError(f"N must be >= 2: {N}")
    for k in range(p // 2 + 1):
        r: dict[int, int] = {}
        for label in range(-N + 1, N, 2):
            e = k * label % p
            r[e] = r.get(e, 0) + 1
        yield {e: c % p for e, c in r.items() if c % p}


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
