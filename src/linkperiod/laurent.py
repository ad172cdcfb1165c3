"""Exact integer Laurent polynomial arithmetic in one and two variables.

All coefficients are Python ints, so arithmetic is exact at any size.
One-variable polynomials carry a variable tag (purely informational);
two-variable polynomials are fixed in the pair (a, z).  Both share one
sparse core: the normalising constructor, +, -, scale and powers.

A packed polynomial is the integer sum of c_e * 2^(width * e) (Kronecker
substitution): adding is one integer addition, multiplying by the
variable one shift.  While every |c_e| is at most the bound the width
was chosen for (`digit_width`), `unpack` reads the signed digits back
exactly, and the integer is 0 only for the zero polynomial.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping


class InexactDivisionError(ArithmeticError):
    """Raised when a Laurent polynomial quotient does not exist exactly."""


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def is_prime(p: int) -> bool:
    return p == 2 or is_odd_prime(p)


class _SparsePoly:
    """What both polynomial types share: an immutable, hashable map from
    exponent key to nonzero int coefficient (the zero polynomial has an
    empty map).  A subclass sets `_key`, which normalizes one key, and
    `_ONE`, the key of the constant term."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        key = self._key
        object.__setattr__(self, "_c", {
            key(k): int(v) for k, v in coeffs.items() if v != 0
        } if coeffs else {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, coeffs):
        """A result of this type from a map with normalized keys and int
        coefficients, dropping zeros; arithmetic skips the constructor."""
        out = object.__new__(type(self))
        object.__setattr__(out, "_c", {k: v for k, v in coeffs.items() if v})
        return out

    def is_zero(self) -> bool:
        return not self._c

    def terms(self) -> list:
        """Sorted (exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._c.items())

    def __add__(self, other):
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0) + v
        return self._like(c)

    def __sub__(self, other):
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0) - v
        return self._like(c)

    def __neg__(self):
        return self._like({k: -v for k, v in self._c.items()})

    def scale(self, k: int):
        return self._like({e: k * v for e, v in self._c.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        out = self._like({self._ONE: 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))


class LaurentPoly(_SparsePoly):
    """A Laurent polynomial with integer coefficients, stored sparsely.

    The variable tag is ignored by equality and arithmetic.
    """

    __slots__ = ("var",)
    _key = int
    _ONE = 0

    def __init__(self, coeffs: Mapping[int, int] | None = None, var: str = "q"):
        super().__init__(coeffs)
        object.__setattr__(self, "var", var)

    def _like(self, coeffs) -> "LaurentPoly":
        out = super()._like(coeffs)
        object.__setattr__(out, "var", self.var)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var: str = "q") -> "LaurentPoly":
        return cls({}, var)

    @classmethod
    def one(cls, var: str = "q") -> "LaurentPoly":
        return cls({0: 1}, var)

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1, var: str = "q") -> "LaurentPoly":
        return cls({exponent: coeff}, var)

    # -- basic queries -----------------------------------------------------

    def coeff(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def exponents(self) -> list[int]:
        return sorted(self._c)

    def max_abs_exponent(self) -> int:
        """Largest |exponent| in the support; 0 for the zero polynomial."""
        if not self._c:
            return 0
        return max(abs(e) for e in self._c)

    def min_exponent(self) -> int:
        return min(self._c)

    def max_exponent(self) -> int:
        return max(self._c)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return self._like(c)

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by var**d."""
        return self._like({e + d: v for e, v in self._c.items()})

    def compose_power(self, k: int) -> "LaurentPoly":
        """Substitute var -> var**k (k may be negative or zero)."""
        c: dict[int, int] = {}
        for e, v in self._c.items():
            c[e * k] = c.get(e * k, 0) + v
        return self._like(c)

    def evaluate_one(self) -> int:
        """Value at var = 1, i.e. the coefficient sum."""
        return sum(self._c.values())

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"

    # -- serialization -----------------------------------------------------

    def serialize(self) -> list[list[int]]:
        return [[e, v] for e, v in self.terms()]

    @classmethod
    def deserialize(cls, pairs: Iterable[Iterable[int]], var: str = "q") -> "LaurentPoly":
        return cls({e: v for e, v in pairs}, var)


class BiLaurent(_SparsePoly):
    """A Laurent polynomial in two variables (a, z), integer coefficients."""

    __slots__ = ()
    _ONE = (0, 0)

    @staticmethod
    def _key(k) -> tuple[int, int]:
        return (int(k[0]), int(k[1]))

    @classmethod
    def zero(cls) -> "BiLaurent":
        return cls({})

    @classmethod
    def one(cls) -> "BiLaurent":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a_exp: int, z_exp: int, coeff: int = 1) -> "BiLaurent":
        return cls({(a_exp, z_exp): coeff})

    def z_min(self) -> int:
        if not self._c:
            return 0
        return min(s for (_, s) in self._c)

    def __mul__(self, other: "BiLaurent") -> "BiLaurent":
        c: dict[tuple[int, int], int] = {}
        for (r1, s1), v1 in self._c.items():
            for (r2, s2), v2 in other._c.items():
                k = (r1 + r2, s1 + s2)
                c[k] = c.get(k, 0) + v1 * v2
        return self._like(c)

    def __repr__(self) -> str:
        return f"BiLaurent({self.serialize()!r})"

    def serialize(self) -> list[list]:
        return [[[r, s], v] for (r, s), v in self.terms()]

    @classmethod
    def deserialize(cls, triples) -> "BiLaurent":
        return cls({(k[0], k[1]): v for k, v in triples})


class IdealVariant(enum.Enum):
    """The three congruence ideals: (p, q^p - 1), (p, q^p + 1), (p, q^2p - 1)."""

    QP_MINUS = "qp-minus"
    QP_PLUS = "qp-plus"
    Q2P_MINUS = "q2p-minus"


def reduce(f: LaurentPoly, p: int, variant: IdealVariant) -> LaurentPoly:
    """Canonical representative of f modulo the chosen ideal.

    QP_MINUS folds exponents mod p into the window (-p/2, p/2).  QP_PLUS
    folds mod 2p into the same window, negating the coefficient for each
    fold across an odd multiple of p (q^p = -1).  Q2P_MINUS folds mod 2p
    into (-p, p].  Coefficients are reduced to {0, ..., p-1}, so f and g
    are congruent exactly when their representatives are equal.  QP_PLUS
    needs an odd prime; the other two accept p = 2.
    """
    plus = variant is IdealVariant.QP_PLUS
    if not is_prime(p) or (plus and p == 2):
        raise ValueError(
            f"modulus must be {'an odd prime' if plus else 'prime'}: {p}")

    c: dict[int, int] = {}
    if variant is IdealVariant.Q2P_MINUS:
        for i, v in f._c.items():
            j = ((i + p - 1) % (2 * p)) - p + 1
            c[j] = c.get(j, 0) + v
    else:
        half = (p - 1) // 2
        for i, v in f._c.items():
            j = ((i + half) % p) - half
            if plus and (i - j) // p % 2:
                v = -v
            c[j] = c.get(j, 0) + v
    return LaurentPoly({e: v % p for e, v in c.items()}, f.var)


def congruent(f: LaurentPoly, g: LaurentPoly, p: int, variant: IdealVariant) -> bool:
    """True iff f and g have the same normal form modulo the ideal."""
    return reduce(f, p, variant) == reduce(g, p, variant)


def digit_width(bound: int) -> int:
    """The fewest whole bytes of bits whose signed digits hold every
    integer of absolute value at most bound."""
    return -(-(bound.bit_length() + 1) // 8) * 8


def unpack(x: int, width: int, low: int = 0) -> dict[int, int]:
    """The exponent -> coefficient map of a packed integer whose lowest
    digit stands for exponent `low`, in time linear in the size of x:
    with 2^(width-1) added to every digit, the digits are byte slices."""
    size, half = width // 8, 1 << (width - 1)
    count = x.bit_length() // width + 1
    bias = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    raw = (x + bias).to_bytes(count * size, "little")
    out = {}
    for k in range(count):
        c = int.from_bytes(raw[k * size:(k + 1) * size], "little") - half
        if c:
            out[low + k] = c
    return out


def quantum_integer(N: int, var: str = "q") -> LaurentPoly:
    """q^(N-1) + q^(N-3) + ... + q^(-N+1), for N >= 1."""
    if N < 1:
        raise ValueError(f"N must be >= 1: {N}")
    return LaurentPoly({e: 1 for e in range(-N + 1, N, 2)}, var)


def _signed_join(terms) -> str:
    """Join (coefficient, text of the term without its sign) pairs with
    explicit signs: "2q - q^3"; "0" when there are no terms."""
    text = " ".join(f"{'-' if v < 0 else '+'} {body}" for v, body in terms)
    if not text:
        return "0"
    return ("-" if text[0] == "-" else "") + text[2:]


def format_poly(f: LaurentPoly) -> str:
    """Render in ascending exponent order with explicit signs."""
    def body(e: int, mag: int) -> str:
        if e == 0:
            return str(mag)
        x = f.var if e == 1 else f"{f.var}^{e}"
        return x if mag == 1 else f"{mag}{x}"
    return _signed_join((v, body(e, abs(v))) for e, v in f.terms())


def format_bilaurent(f: BiLaurent) -> str:
    """Render a polynomial in (a, z), sorted by (a-exp, z-exp)."""
    def body(r: int, s: int, mag: int) -> str:
        factors = []
        if mag != 1 or (r == 0 and s == 0):
            factors.append(str(mag))
        if r != 0:
            factors.append("a" if r == 1 else f"a^{r}")
        if s != 0:
            factors.append("z" if s == 1 else f"z^{s}")
        return "".join(factors)
    return _signed_join((v, body(r, s, abs(v))) for (r, s), v in f.terms())
