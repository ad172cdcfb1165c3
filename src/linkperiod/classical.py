"""Classical non-periodicity criteria used for cross-validation: the
Jones self-symmetry test (a zero test by `laurent.reduce`), the
coefficient-jump test on the z-degree-zero HOMFLY part, and Murasugi's
Alexander-polynomial test over a prime field, where f(t)^q = f(t^q) for
q a power of p, so no polynomial is raised to a power."""

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


def murasugi_candidates(delta: LaurentPoly, p: int, r: int = 1) -> frozenset[int] | None:
    """Alexander factorization test over the field of p elements.

    A q-periodic knot, q = p^r, forces Delta(t) = +-f(t)^q * Phi_lambda^(q-1)
    mod p with Phi_lambda = 1 + t + ... + t^(lambda-1) and gcd(lambda, p)=1.
    Over that field G(t)^q = G(t^q), so this holds exactly when
    Delta * Phi_lambda is a polynomial in t^q: then it is G^q, and
    Phi_lambda, squarefree as lambda is prime to p, divides G^q and so G.
    The sign changes nothing.  Returns the feasible lambda set (empty
    certifies non-q-periodicity), or None when Delta vanishes mod p
    (inconclusive).
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
        product = _gf_mul(dense, [1] * lam, p)
        if not any(c for i, c in enumerate(product) if i % q_pow):
            feasible.add(lam)
    return frozenset(feasible)
