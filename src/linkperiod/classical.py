"""Classical non-periodicity criteria used for cross-validation: the
Jones self-symmetry test (a zero test by `laurent.reduce`), the
coefficient-jump test on the z-degree-zero HOMFLY part, and Murasugi's
Alexander-polynomial test over the field of p elements, where
f(t)^p = f(t^p), so no polynomial is raised to a power."""

from __future__ import annotations

from itertools import accumulate

from .laurent import LaurentPoly, is_prime, reduce

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
    # Folding mod p is enough in s as well.  V is in s only for a link
    # with an even number m of components, and then every exponent is
    # odd.  For odd p, two odd exponents agree mod 2p exactly when they
    # agree mod p.  At p = 2, V - V(1/s) folds mod 4 to c(s - s^3), and
    # c = V(1) = (-2)^(m-1) = 0 mod 2.
    return not reduce(V - V.compose_power(-1), p)


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


def murasugi_candidates(delta: LaurentPoly, p: int) -> frozenset[int] | None:
    """Alexander factorization test over the field of p elements.

    A p-periodic knot forces Delta(t) = +-f(t)^p * Phi_lambda^(p-1) mod p
    with Phi_lambda = 1 + t + ... + t^(lambda-1) and gcd(lambda, p) = 1.
    Over that field G(t)^p = G(t^p), so this holds exactly when
    Delta * Phi_lambda is a polynomial in t^p: then it is G^p, and
    Phi_lambda, squarefree as lambda is prime to p, divides G^p and so G.
    The sign changes nothing.  Coefficient i of Delta * Phi_lambda is the
    window sum Delta_(i-lambda+1) + ... + Delta_i, a difference of two
    prefix sums, so each lambda costs O(d + lambda) for degree d.  Returns
    the feasible lambda set (empty certifies non-p-periodicity), or None
    when Delta vanishes mod p (inconclusive).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime: {p}")
    terms = {e: c % p for e, c in delta.terms() if c % p}
    if not terms:
        return None
    # Any t-power unit left by normalization is dropped.
    lo = min(terms)
    d = max(terms) - lo
    # prefix[k] = Delta_0 + ... + Delta_(k-1) for k <= d + 1.
    prefix = [0, *accumulate(terms.get(lo + i, 0) for i in range(d + 1))]

    def window_sums_vanish(lam: int) -> bool:
        """Whether Delta * Phi_lambda vanishes mod p off the powers of t^p."""
        return all(
            (prefix[min(i, d) + 1] - prefix[max(i + 1 - lam, 0)]) % p == 0
            for i in range(d + lam) if i % p)

    # A feasible lambda has Phi_lambda^(p-1) dividing Delta mod p, so
    # (lambda - 1)(p - 1) <= d.
    return frozenset(lam for lam in range(1, d // (p - 1) + 2)
                     if lam % p and window_sums_vanish(lam))
