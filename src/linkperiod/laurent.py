"""Exact integer Laurent polynomial arithmetic in one and two variables.

All coefficients are Python ints, so arithmetic is exact at any size.
A polynomial is only its coefficient map: the letter it is written in
(q, s, t or a for one variable, the pair (a, z) for two) is named where
it is reported, by `format_poly` and `format_bilaurent`.  Both types share
one sparse core: the normalising constructor, +, -, scale and powers.
It derives from `_Value`, the one immutable value base, which the braids
and diagrams of `diagram` use too: equality, hashing, copies and pickles.

A packed polynomial is the integer sum of c_e * 2^(width * e) (Kronecker
substitution): adding is one integer addition, multiplying by the
variable one shift.  While every |c_e| is at most the bound the width
was chosen for (`digit_width`), `unpack` reads the signed digits back
exactly, and the integer is 0 only for the zero polynomial.
`digit_width` may give more bits than the bound needs, up to a machine
integer of 1, 2, 4 or 8 bytes; a wider digit only strengthens each
bound that a caller derives for its width.
"""

from __future__ import annotations

import sys


class InexactDivisionError(ArithmeticError):
    """Raised when a Laurent polynomial quotient does not exist exactly."""


class ResourceLimitError(RuntimeError):
    """An input past a size limit: the crossing limit of the CLI, the
    bound of `is_prime` and `MAX_WORK`."""


#: The one work limit of the searches, read at call time: state-sum table
#: entries, and the orbits a link search tests and the tuples it lists.
MAX_WORK = 2_000_000


def is_prime(n: int) -> bool:
    """Trial division by the 13 primes up to 41, then strong probable-prime
    tests to those 13 bases, which no composite below psi_13 passes
    (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
    2015).  n >= psi_13 is refused."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for a in bases:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return n > 1
    psi13 = 3_317_044_064_679_887_385_961_981
    if n >= psi13:
        raise ResourceLimitError(
            f"{n} is not below {psi13}, the bound of the prime test")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Value:
    """An immutable value whose fields are its __slots__: equal fields make
    equal objects of one class, with equal hashes, and a copy or a pickle
    rebuilds it through the constructor.  Plain slots rather than a frozen
    dataclass, which would cost every process the dataclasses import and
    the code it generates.  The braids and diagrams of `diagram` and both
    polynomial types below are such values."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class _SparsePoly(_Value):
    """What both polynomial types share: a value whose one field is a map
    from exponent key to nonzero int coefficient (the zero polynomial has
    an empty map).  A subclass sets `_key`, which normalizes one key, and
    `_ONE`, the key of the constant term."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        key = self._key
        object.__setattr__(self, "_c", {
            key(k): int(v) for k, v in coeffs.items() if v != 0
        } if coeffs else {})

    def _fields(self) -> tuple:
        # The subclasses' own __slots__ are empty.
        return (self._c,)

    def _like(self, coeffs):
        """A result of this type from a map with normalized keys and int
        coefficients, dropping zeros; arithmetic skips the constructor."""
        out = object.__new__(type(self))
        object.__setattr__(out, "_c", {k: v for k, v in coeffs.items() if v})
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._ONE: 1})

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

    def __hash__(self) -> int:
        # The field is a dict, which does not hash.
        return hash(frozenset(self._c.items()))


class LaurentPoly(_SparsePoly):
    """A Laurent polynomial in one variable with integer coefficients,
    stored sparsely."""

    __slots__ = ()
    _key = int
    _ONE = 0

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exponent: coeff})

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
        """Multiply by the variable to the power d."""
        return self._like({e + d: v for e, v in self._c.items()})

    def compose_power(self, k: int) -> "LaurentPoly":
        """Substitute x -> x^k for the variable x (k may be negative or
        zero)."""
        c: dict[int, int] = {}
        for e, v in self._c.items():
            c[e * k] = c.get(e * k, 0) + v
        return self._like(c)

    def evaluate_one(self) -> int:
        """The value at 1, i.e. the coefficient sum."""
        return sum(self._c.values())

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms())!r})"

    # -- serialization -----------------------------------------------------

    def serialize(self) -> list[list[int]]:
        return [[e, v] for e, v in self.terms()]


class BiLaurent(_SparsePoly):
    """A Laurent polynomial in two variables (a, z), integer coefficients."""

    __slots__ = ()
    _ONE = (0, 0)

    @staticmethod
    def _key(k) -> tuple[int, int]:
        return (int(k[0]), int(k[1]))

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


def reduce(f: LaurentPoly, p: int) -> dict[int, int]:
    """f modulo (p, q^p - 1): the map from each exponent mod p to its
    coefficient mod p, zeros dropped.  f and g are congruent exactly
    when their maps are equal."""
    if not is_prime(p):
        raise ValueError(f"modulus must be prime: {p}")
    c: dict[int, int] = {}
    for e, v in f._c.items():
        c[e % p] = c.get(e % p, 0) + v
    return {e: v % p for e, v in c.items() if v % p}


def digit_width(bound: int) -> int:
    """A width in whole bytes of bits whose signed digits hold every
    integer of absolute value at most bound: the fewest such bytes, taken
    up to 1, 2, 4 or 8 bytes when at most 8, so that `unpack` reads the
    digits with one cast.  A wider digit holds a larger bound, so every
    bound that a caller derives for a width holds at this one too."""
    width = -(-(bound.bit_length() + 1) // 8) * 8
    return width if width > 64 else 1 << (width - 1).bit_length()


#: The unsigned memoryview format of each digit size in bytes it has.
_FORMATS = {memoryview(bytes(8)).cast(c).itemsize: c for c in "BHILQ"}


def unpack(x: int, width: int, low: int = 0) -> dict[int, int]:
    """The exponent -> coefficient map of a packed integer whose lowest
    digit stands for exponent `low`, in time linear in the size of x:
    with 2^(width-1) added to every digit, the digits are unsigned, read
    by one memoryview cast when a digit is a machine integer of 1, 2, 4
    or 8 bytes (in the host's byte order), else as byte slices."""
    size, half = width // 8, 1 << (width - 1)
    count = x.bit_length() // width + 1
    fmt = _FORMATS.get(size)
    order = sys.byteorder if fmt else "little"
    bias = int.from_bytes(half.to_bytes(size, order) * count, order)
    raw = (x + bias).to_bytes(count * size, order)
    if fmt:
        digits = memoryview(raw).cast(fmt)
        if order == "big":                  # the lowest digit comes last
            digits = digits[::-1]
    else:
        digits = (int.from_bytes(raw[k * size:(k + 1) * size], order)
                  for k in range(count))
    return {low + k: c - half for k, c in enumerate(digits) if c != half}


def quantum_integer(N: int) -> LaurentPoly:
    """q^(N-1) + q^(N-3) + ... + q^(-N+1), for N >= 1."""
    if N < 1:
        raise ValueError(f"N must be >= 1: {N}")
    return LaurentPoly({e: 1 for e in range(-N + 1, N, 2)})


def _signed_join(terms) -> str:
    """Join (coefficient, text of the term without its sign) pairs with
    explicit signs: "2q - q^3"; "0" when there are no terms."""
    text = " ".join(f"{'-' if v < 0 else '+'} {body}" for v, body in terms)
    if not text:
        return "0"
    return ("-" if text[0] == "-" else "") + text[2:]


def format_poly(pairs, var: str) -> str:
    """Render serialized (exponent, coefficient) pairs of a polynomial in
    var with explicit signs; the pairs come in ascending exponent order,
    as `LaurentPoly.serialize` emits them."""
    def body(e: int, mag: int) -> str:
        if e == 0:
            return str(mag)
        x = var if e == 1 else f"{var}^{e}"
        return x if mag == 1 else f"{mag}{x}"
    return _signed_join((v, body(e, abs(v))) for e, v in pairs)


def format_bilaurent(triples) -> str:
    """Render serialized ((a-exp, z-exp), coefficient) terms of a
    polynomial in (a, z); the terms come sorted by (a-exp, z-exp), as
    `BiLaurent.serialize` emits them."""
    def body(r: int, s: int, mag: int) -> str:
        factors = []
        if mag != 1 or (r == 0 and s == 0):
            factors.append(str(mag))
        if r != 0:
            factors.append("a" if r == 1 else f"a^{r}")
        if s != 0:
            factors.append("z" if s == 1 else f"z^{s}")
        return "".join(factors)
    return _signed_join((v, body(r, s, abs(v))) for (r, s), v in triples)
