"""Congruence criteria for link periodicity from the quantum invariant.

A p-periodic link forces its quantum invariant to be congruent, modulo
(p, q^p - 1), to a candidate sum determined by the linking numbers of
its components with the rotation axis; modulo (p, q^p + 1) the same
holds up to sign.  Checking every candidate and finding none certifies
non-periodicity.

Every candidate function returns a plain frozenset: residues k mod p
(QP_MINUS knots), (k, sign) pairs (QP_PLUS knots) or psi-tuples of
residues (links).  The empty set reads "not p-periodic".

Links are searched by orbits, not by all p^m tuples.  Modulo
(p, q^p - 1) the candidate sum of psi is the product of the residues
r_k of [N]_{q^k} over its coordinates k = psi_j.  Such a product does
not depend on the order of the components, and r_{-k} = r_k because
[N]_q is symmetric under q -> q^-1.  So the set of matching tuples is
closed under permuting coordinates and under negating any one of them,
and every orbit has exactly one non-decreasing representative in
{0..p//2}^m.  `link_candidates` walks those representatives depth
first, sharing each prefix product, and expands each hit into its
orbit: C(p//2 + m, m) products in F_p[q]/(q^p - 1) instead of p^m,
for example 210 instead of 28,561 at p = 13, m = 4.
"""

from __future__ import annotations

import itertools

from .laurent import (IdealVariant, LaurentPoly, is_odd_prime, is_prime,
                      quantum_integer, reduce)

DEFAULT_MAX_LINK_COMPONENTS = 4


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
                    variant: IdealVariant = IdealVariant.QP_MINUS) -> frozenset:
    """Linking numbers whose candidate sum is congruent to the knot invariant.

    QP_MINUS gives residues k in 0..p-1 (p = 2 allowed); QP_PLUS gives
    (k, sign) pairs, k in 0..2p-1 and sign "+" or "-".  An empty result
    reads "not p-periodic".
    """
    if variant is IdealVariant.QP_MINUS:
        return frozenset(k for (k,) in link_candidates(inv, p, N, 1))
    if variant is not IdealVariant.QP_PLUS:
        raise ValueError("knot candidates are defined for QP_MINUS and QP_PLUS")
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime: {p}")
    target = reduce(inv, p, variant)
    hits = set()
    for k in range(2 * p):
        rhs = rhs_sum(N, (k,))
        if reduce(rhs, p, variant) == target:
            hits.add((k, "+"))
        if reduce(-rhs, p, variant) == target:
            hits.add((k, "-"))
    return frozenset(hits)


def link_candidates(inv: LaurentPoly, p: int, N: int, m: int) -> frozenset:
    """All tuples psi in {0..p-1}^m whose candidate sum matches the link
    invariant mod (p, q^p - 1); empty means "not p-periodic".

    Only the non-decreasing tuples over {0..p//2} are tested; each hit
    is expanded into its orbit under negating coordinates and permuting
    components (see the module docstring)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime: {p}")
    if m > DEFAULT_MAX_LINK_COMPONENTS:
        raise ValueError(
            f"psi enumeration over p^{m} tuples exceeds the guard "
            f"(m <= {DEFAULT_MAX_LINK_COMPONENTS})")
    if N < 2:
        raise ValueError(f"N must be >= 2: {N}")
    if m < 1:
        raise ValueError("need at least one component")
    target = _dense(reduce(inv, p, IdealVariant.QP_MINUS), p)
    residues = [_dense(reduce(quantum_integer(N).compose_power(k), p,
                              IdealVariant.QP_MINUS), p)
                for k in range(p // 2 + 1)]
    hits: set[tuple[int, ...]] = set()

    def extend(prefix: list[int], ks: tuple[int, ...]) -> None:
        if len(ks) == m:
            if prefix == target:
                signed = itertools.product(*({k, -k % p} for k in ks))
                hits.update(perm for t in signed
                            for perm in itertools.permutations(t))
            return
        for k in range(ks[-1] if ks else 0, len(residues)):
            extend(_cyclic_product(prefix, residues[k], p), ks + (k,))

    extend(_dense(LaurentPoly.one(), p), ())
    return frozenset(hits)


def _dense(f: LaurentPoly, p: int) -> list[int]:
    """Coefficients of a reduced f, indexed by exponent mod p."""
    out = [0] * p
    for e, c in f.terms():
        out[e % p] = c
    return out


def _cyclic_product(f: list[int], g: list[int], p: int) -> list[int]:
    """f * g in F_p[q]/(q^p - 1) on dense coefficient lists; g should be
    the factor with few nonzero entries."""
    out = [0] * p
    for e, c in enumerate(g):
        if c:
            rotated = f[-e:] + f[:-e] if e else f      # rotated[i] = f[i - e]
            out = [o + c * x for o, x in zip(out, rotated)]
    return [o % p for o in out]


def possible_linking(sets: list[frozenset], p: int) -> frozenset[int]:
    """Residues k whose +-class lies in every given QP_MINUS candidate
    set (one per tested N).  Empty means "not p-periodic"."""
    if not sets:
        raise ValueError("need candidate sets for at least one N")
    out = set()
    for k in range(p):
        cls = {k % p, (-k) % p}
        if all(cls <= s for s in sets):
            out.update(cls)
    return frozenset(out)


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
