"""Congruence criteria for link periodicity from the quantum invariant.

A p-periodic link forces its quantum invariant to be congruent, modulo
(p, q^p - 1), to a candidate sum determined by the linking numbers of
its components with the rotation axis; modulo (p, q^p + 1) the same
holds up to sign.  Checking every candidate and finding none certifies
non-periodicity.

Every candidate function returns a plain frozenset: residues k mod p
(knots), (k, sign) pairs (knots, quantum-plus) or psi-tuples of residues
(links).  The empty set reads "not p-periodic".

Both quantum criteria are one search, by orbits, not by all p^m tuples.
Modulo (p, q^p - 1) the candidate sum of psi is the product of the
residues r_k of [N]_{q^k} over its coordinates k = psi_j.  Such a
product does not depend on the order of the components, and r_{-k} =
r_k because [N]_q is symmetric under q -> q^-1.  So the set of matching
tuples is closed under permuting coordinates and under negating any one
of them, and every orbit has exactly one non-decreasing representative
in {0..p//2}^m.  `link_candidates` walks those representatives depth
first from each r_k, sharing each prefix product, and expands each hit
into its orbit.  At the last coordinate an O(N) probe computes one
coefficient of prefix * r_k, at the target's lowest exponent, and the
product is formed only when it matches.  So the C(p//2 + m, m)
representatives cost at most as many probes and fewer than
C(p//2 + m, m - 1) products in F_p[q]/(q^p - 1), plus one per hit: at
p = 41, m = 4, 10,626 probes and 2,022 products, where p^m = 2,825,761.
Target, residues and products are sparse maps from exponent mod p to
nonzero coefficient, the form `laurent.reduce` returns; r_k has at most
N terms, so a knot (m = 1) forms no product and costs O(p * N) time;
its search reads each r_k once, in order, so only a link's search keeps
the p//2 + 1 residues.

For odd p, q -> -q is a ring isomorphism from F_p[q]/(q^p + 1) onto
F_p[q]/(q^p - 1) that sends [N]_{q^k} to (-1)^{k(N-1)} [N]_{q^k}.  So
the quantum-plus criterion for f is the same search on +-f(-q), the two
signs being two targets of one walk: each residue r it keeps stands for
k = r and k = r + p, with the sign flipped when k(N-1) is odd.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .laurent import LaurentPoly, is_prime, quantum_integer, reduce

#: Most components of a link: its report lists up to 2^m * m! tuples per hit.
MAX_LINK_COMPONENTS = 4


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
    if not plus:
        return frozenset(k for (k,) in link_candidates(inv, p, N, 1))
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime: {p}")
    target = reduce(LaurentPoly({e: -c if e % 2 else c  # f(-q)
                                 for e, c in inv.terms()}), p)
    negated = {e: p - c for e, c in target.items()}
    hits = set()
    for s, found in zip((1, -1), _orbit_search([target, negated], p, N, 1)):
        for (r,) in found:
            for k in (r, r + p):
                sign = -s if k * (N - 1) % 2 else s
                hits.add((k, "+" if sign > 0 else "-"))
    return frozenset(hits)


def link_candidates(inv: LaurentPoly, p: int, N: int, m: int) -> frozenset:
    """All tuples psi in {0..p-1}^m whose candidate sum matches the link
    invariant mod (p, q^p - 1); empty means "not p-periodic".

    Only the non-decreasing tuples over {0..p//2} are tested; each hit
    is expanded into its orbit under negating coordinates and permuting
    components (see the module docstring)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime: {p}")
    if m > MAX_LINK_COMPONENTS:
        raise ValueError(
            f"{m} components exceed the limit of {MAX_LINK_COMPONENTS}: the "
            "report lists every tuple of each matching orbit, up to 2^m * m! "
            "per hit")
    if m < 1:
        raise ValueError("need at least one component")
    return frozenset(_orbit_search([reduce(inv, p)], p, N, m)[0])


def _orbit_search(targets: list[dict[int, int]], p: int, N: int,
                  m: int) -> list[set[tuple[int, ...]]]:
    """For each target, the psi-tuples whose product of residues equals it,
    from one walk (module docstring).  Every target is probed at the first
    one's lowest exponent, which +-f(-q) share."""
    if N < 2:
        raise ValueError(f"N must be >= 2: {N}")
    residues = quantum_residues(p, N)
    if m > 1:
        residues = list(residues)
        probe = min(targets[0], default=0)
        wants = {t.get(probe, 0) for t in targets}
        probes = [[((probe - d) % p, c) for d, c in r.items()]
                  for r in residues]
    hits: list[set[tuple[int, ...]]] = [set() for _ in targets]

    def extend(prefix: dict[int, int], ks: tuple[int, ...]) -> None:
        if len(ks) == m:
            for target, found in zip(targets, hits):
                if prefix == target:
                    signed = itertools.product(*({k, -k % p} for k in ks))
                    found.update(perm for t in signed
                                 for perm in itertools.permutations(t))
            return
        last = len(ks) == m - 1
        for k in range(ks[-1], len(residues)):
            if last and sum(prefix.get(e, 0) * c
                            for e, c in probes[k]) % p not in wants:
                continue
            extend(_cyclic_product(prefix, residues[k], p), ks + (k,))

    for k, r in enumerate(residues):
        extend(r, (k,))
    return hits


def quantum_residues(p: int, N: int) -> Iterator[dict[int, int]]:
    """r_k, the residue of [N]_{q^k} mod (p, q^p - 1), for k = 0..p//2 in
    order: k * I mod p -> multiplicity mod p over I in I_N, zeros dropped.
    Yielded one at a time, so a knot's search, which reads each r_k
    once, holds one of them at a time."""
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
