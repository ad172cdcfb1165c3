"""Classical non-periodicity criteria used for cross-validation: the
Jones self-symmetry test (a zero test by `laurent.reduce`), the
coefficient-jump test on the z-degree-zero HOMFLY part, and the
Alexander-polynomial factorization test over a prime field."""

from __future__ import annotations

import math

from .laurent import IdealVariant, LaurentPoly, is_prime, reduce

__all__ = [
    "traczyk_jones_check",
    "traczyk_p0_candidates",
    "murasugi_candidates",
]


def traczyk_jones_check(V: LaurentPoly, p: int) -> bool:
    """Jones symmetry test: V(t) = V(1/t) mod (p, t^p - 1).

    V may be given in t (knots) or in s = sqrt(t) (links); in the
    s-variable the ideal becomes (p, s^2p - 1).  A p-periodic link
    always passes, so failure certifies non-periodicity.
    """
    variant = IdealVariant.QP_MINUS if V.var == "t" else IdealVariant.Q2P_MINUS
    return reduce(V - V.compose_power(-1), p, variant).is_zero()


def traczyk_p0_candidates(P0: LaurentPoly, p: int) -> frozenset[int]:
    """Coefficient-jump test on the z-degree-zero part of a knot HOMFLY.

    Consecutive even-exponent coefficients c_2i, c_2i+2 must agree mod p
    except possibly where 2i+1 = +-lambda mod p.  Returns all residues
    lambda consistent with the observed jump positions; empty means the
    knot is not p-periodic.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime: {p}")
    if any(e % 2 != 0 for e in P0.exponents()):
        raise ValueError("odd exponent in the z-degree-zero part")
    if P0.is_zero():
        return frozenset(range(p))
    lo = P0.min_exponent() - 2
    hi = P0.max_exponent()
    jumps = set()
    for e in range(lo, hi + 1, 2):
        if (P0.coeff(e) - P0.coeff(e + 2)) % p != 0:
            jumps.add((e + 1) % p)
    return frozenset(
        lam for lam in range(p)
        if jumps <= {lam % p, (-lam) % p})


# -- dense polynomial helpers over the field of p elements ---------------

def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _gf_trim(out)


def _gf_pow(a: list[int], n: int, p: int) -> list[int]:
    out = [1]
    base = list(a)
    while n:
        if n & 1:
            out = _gf_mul(out, base, p)
        base = _gf_mul(base, base, p)
        n >>= 1
    return out


def _gf_divmod(a: list[int], b: list[int], p: int):
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p) if p > 2 else b[-1]
    while len(a) >= len(b) and _gf_trim(a):
        shift = len(a) - len(b)
        coef = (a[-1] * inv_lead) % p
        q[shift] = coef
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * y) % p
        _gf_trim(a)
    return _gf_trim(q), _gf_trim(a)


def murasugi_candidates(delta: LaurentPoly, p: int, r: int = 1) -> frozenset[int] | None:
    """Alexander factorization test over the field of p elements.

    A p^r-periodic knot forces Delta(t) = f(t)^(p^r) * Phi_lambda^(p^r - 1)
    mod p with Phi_lambda = 1 + t + ... + t^(lambda-1) and gcd(lambda, p)=1,
    up to the unit +-1.  Returns the feasible lambda set (empty certifies
    non-p^r-periodicity), or None when Delta vanishes mod p (inconclusive).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime: {p}")
    if r < 1:
        raise ValueError(f"r must be >= 1: {r}")
    if delta.is_zero():
        return None
    shift = -delta.min_exponent()
    dense = [0] * (delta.max_exponent() + shift + 1)
    for e, c in delta.terms():
        dense[e + shift] = c % p
    dense = _gf_trim(dense)
    if not dense:
        return None
    # Strip any t-power unit left by normalization.
    while dense and dense[0] == 0:
        dense.pop(0)

    q_pow = p ** r
    d = len(dense) - 1
    feasible = set()
    for lam in range(1, d // max(q_pow - 1, 1) + 2):
        if math.gcd(lam, p) != 1:
            continue
        if (lam - 1) * (q_pow - 1) > d:
            continue
        phi_pow = _gf_pow([1] * lam, q_pow - 1, p)
        for unit in (1, p - 1):
            target = [(unit * c) % p for c in dense]
            quot, rem = _gf_divmod(target, phi_pow, p)
            if rem:
                continue
            if all(c == 0 for i, c in enumerate(quot) if i % q_pow != 0):
                feasible.add(lam)
                break
    return frozenset(feasible)

