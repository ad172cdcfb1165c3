import copy
import json
import math
import pickle
import random

import pytest

from linkperiod import laurent
from linkperiod.laurent import (BiLaurent, InexactDivisionError, LaurentPoly,
                                ResourceLimitError, digit_width,
                                format_bilaurent, format_poly, is_prime,
                                quantum_integer, reduce, unpack)
from reference import exact_divide, parity_split, reduce_2p, reduce_plus

Q = LaurentPoly.monomial


def P(**kw):
    """Shorthand: P(e3=2, em1=-1) -> 2q^3 - q^-1."""
    return LaurentPoly({int(k[1:].replace("m", "-")): v for k, v in kw.items()})


class TestReduce:
    def test_qp_minus_folds_trefoil_invariant(self):
        f = LaurentPoly({-1: 1, -3: 1, -5: 1, -9: -1})
        assert reduce(f, 3) == {2: 1, 1: 1}

    def test_qp_power_is_one(self):
        for p in (3, 5, 7, 11):
            assert reduce(Q(p), p) == {0: 1}

    def test_qp_plus_power_is_minus_one(self):
        # The reference fold modulo (p, q^p + 1).
        for p in (3, 5, 7):
            assert reduce_plus(Q(p), p) == {0: p - 1}

    def test_q2p_window(self):
        # The reference fold modulo (p, q^2p - 1).
        assert reduce_2p(Q(7) + Q(-7), 5) == {7: 1, 3: 1}

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError, match="^modulus must be prime: 9$"):
            reduce(Q(1), 9)
        with pytest.raises(ValueError, match="^modulus must be prime: 4$"):
            reduce(Q(1), 4)

    def test_p2_allowed_for_qp_minus(self):
        assert reduce(Q(3) + Q(1), 2) == {}

    def test_p2_allowed_for_q2p_minus(self):
        # Mod (2, q^4 - 1): q^3 and q^-1 fold together, q^4 + 1 -> 0.
        assert reduce_2p(Q(3), 2) == reduce_2p(Q(-1), 2) == {3: 1}
        assert reduce_2p(Q(4) + Q(0), 2) == {}


class TestCongruent:
    """f and g are congruent exactly when their residue maps are equal."""

    def test_reflexive(self):
        f = LaurentPoly({5: 3, -2: 1})
        assert reduce(f, 7) == reduce(f, 7)

    def test_difference_p(self):
        assert reduce(Q(1), 5) != reduce(Q(1) + LaurentPoly({0: 1}), 5)
        assert reduce(Q(1), 5) == reduce(Q(1) + LaurentPoly({1: 5}), 5)

    def test_trefoil_against_candidate(self):
        trefoil = LaurentPoly({-1: 1, -3: 1, -5: 1, -9: -1})
        assert reduce(trefoil, 3) == reduce(Q(2) + Q(-2), 3)


class TestExponentFolding:
    """Random exponent pairs congruent mod p reduce identically."""

    def test_lemma_random(self):
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice((3, 5, 7, 11))
            i = rng.randint(-100, 100)
            j = i + p * rng.randint(-10, 10)
            assert reduce(Q(i), p) == reduce(Q(j), p)


def _random_poly(rng, parity=None):
    c = {}
    for _ in range(rng.randint(0, 6)):
        e = rng.randint(-10, 10)
        if parity is not None:
            e = 2 * e + (1 if parity == "odd" else 0)
        c[e] = rng.randint(-9, 9)
    return LaurentPoly(c)


class TestIdealImplications:
    def test_parity_homogeneous_membership_transfers(self):
        # A parity-homogeneous member of (p, q^p - 1) also lies in
        # (p, q^p + 1) and (p, q^2p - 1).  Members are generated as
        # (q^p - 1) g + p h with parity-homogeneous g, h and then split
        # into parity parts; homogeneous parts that still reduce to zero
        # modulo (p, q^p - 1) must vanish modulo the other two ideals too
        # (the reference folds `reduce_plus` and `reduce_2p`).
        rng = random.Random(11)
        hits = 0
        for _ in range(300):
            p = rng.choice((3, 5, 7))
            par = rng.choice(("even", "odd"))
            g = _random_poly(rng, par)
            h = _random_poly(rng, par)
            f = (Q(p) - Q(0)) * g + h.scale(p)
            for part in parity_split(f):
                if part.is_zero():
                    continue
                if not reduce(part, p):
                    hits += 1
                    assert not reduce_plus(part, p)
                    assert not reduce_2p(part, p)
        assert hits > 0

    def test_joint_membership_gives_q2p(self):
        rng = random.Random(13)
        for _ in range(300):
            p = rng.choice((3, 5))
            f = _random_poly(rng)
            if not reduce(f, p) and not reduce_plus(f, p):
                assert not reduce_2p(f, p)

    def test_canonicity_under_ideal_shifts(self):
        rng = random.Random(17)
        for _ in range(100):
            p = rng.choice((3, 5, 7))
            f = _random_poly(rng)
            g = _random_poly(rng)
            h = _random_poly(rng)
            shifted = f + (Q(p) - Q(0)) * g + h.scale(p)
            assert reduce(shifted, p) == reduce(f, p)


class TestParitySplit:
    def test_basic(self):
        f = LaurentPoly({2: 1, 1: 1, 0: 1})
        even, odd = parity_split(f)
        assert even == LaurentPoly({2: 1, 0: 1})
        assert odd == LaurentPoly({1: 1})

    def test_zero(self):
        even, odd = parity_split(LaurentPoly.zero())
        assert even.is_zero() and odd.is_zero()

    def test_negative_odd(self):
        f = LaurentPoly({-3: 1, -1: 1})
        even, odd = parity_split(f)
        assert even.is_zero() and odd == f

    def test_sum_recovers(self):
        rng = random.Random(23)
        for _ in range(50):
            f = _random_poly(rng)
            even, odd = parity_split(f)
            assert even + odd == f


class TestExactDivide:
    def test_examples(self):
        q4m1 = Q(4) - Q(0)
        q2m1 = Q(2) - Q(0)
        assert exact_divide(q4m1, q2m1) == Q(2) + Q(0)
        assert exact_divide(Q(2) - Q(-2), Q(1) - Q(-1)) == Q(1) + Q(-1)

    def test_inexact(self):
        with pytest.raises(InexactDivisionError):
            exact_divide(Q(0), Q(1) - Q(-1))

    def test_leading_coefficient_not_divisible(self):
        # 1 is not a multiple of 2 at the first step; at the second step
        # 2q^2 + 2q + 1 - q(2q + 1) leaves q + 1, whose leading 1 is not.
        with pytest.raises(InexactDivisionError):
            exact_divide(Q(0), LaurentPoly({0: 2}))
        with pytest.raises(InexactDivisionError):
            exact_divide(LaurentPoly({2: 2, 1: 2, 0: 1}),
                         LaurentPoly({1: 2, 0: 1}))

    def test_zero_divisor_distinct(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(Q(1), LaurentPoly.zero())

    def test_roundtrip_random(self):
        rng = random.Random(29)
        for _ in range(200):
            f = _random_poly(rng)
            g = _random_poly(rng)
            if g.is_zero():
                continue
            assert exact_divide(f * g, g) == f


class TestQuantumInteger:
    @pytest.mark.parametrize("N,expected", [
        (1, {0: 1}),
        (2, {1: 1, -1: 1}),
        (3, {2: 1, 0: 1, -2: 1}),
    ])
    def test_values(self, N, expected):
        assert quantum_integer(N) == LaurentPoly(expected)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quantum_integer(0)

    def test_ratio_definition(self):
        for N in range(1, 8):
            num = Q(N) - Q(-N)
            den = Q(1) - Q(-1)
            assert exact_divide(num, den) == quantum_integer(N)


def test_serialization_roundtrip():
    f = LaurentPoly({-4: 2, 0: -1, 7: 3})
    assert LaurentPoly(dict(f.serialize())) == f
    assert LaurentPoly.zero().serialize() == []


# One sample pair of each polynomial type, for the core both share.
SAMPLES = {
    "LaurentPoly": (LaurentPoly({-4: 2, 0: -1, 7: 3}),
                    LaurentPoly({1: 1, -1: -1}), LaurentPoly.one()),
    "BiLaurent": (BiLaurent({(1, -1): 2, (0, 0): -1, (3, 2): 3}),
                  BiLaurent({(1, 1): 1, (-1, 0): -1}), BiLaurent.one()),
}


@pytest.mark.parametrize("kind", SAMPLES)
class TestSharedCore:
    def test_immutable(self, kind):
        f, _, _ = SAMPLES[kind]
        for name in ("_c", "var", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, {})
        assert f.serialize() == SAMPLES[kind][0].serialize()

    def test_constructor_normalizes(self, kind):
        f, _, _ = SAMPLES[kind]
        assert type(f)({k: 0 for k, _ in f.terms()}).is_zero()
        assert (f - f).is_zero() and (f + -f).is_zero()
        h = type(f)({k: float(v) for k, v in f.terms()})
        assert h == f and all(type(v) is int for _, v in h.terms())

    def test_power_negation_scale(self, kind):
        f, g, one = SAMPLES[kind]
        assert f ** 0 == one
        assert f ** 3 == f * f * f
        assert (f + g) ** 2 == f * f + f * g.scale(2) + g * g
        assert -(-f) == f
        assert f.scale(-3) == -(f + f + f)
        assert f.scale(0).is_zero()
        with pytest.raises(ValueError):
            f ** -1

    def test_serialization_roundtrip(self, kind):
        # The constructor rebuilds each polynomial from its serialized
        # terms as a JSON report carries them.
        f, g, one = SAMPLES[kind]
        for h in (f, g, one, f ** 2 - g, type(f)()):
            terms = json.loads(json.dumps(h.serialize()))
            assert type(f)({tuple(k) if isinstance(k, list) else k: v
                            for k, v in terms}) == h

    def test_hash_agrees_with_equality(self, kind):
        f, g, _ = SAMPLES[kind]
        assert len({f * g, g * f, f, f ** 1}) == 2

    def test_copy_pickle_and_delete(self, kind):
        f, g, one = SAMPLES[kind]
        for h in (f, g, one, type(f)()):
            for twin in (copy.copy(h), copy.deepcopy(h),
                         pickle.loads(pickle.dumps(h))):
                assert type(twin) is type(h)
                assert twin == h and hash(twin) == hash(h)
        assert copy.deepcopy(f) != g
        with pytest.raises(AttributeError):
            delattr(f, "_c")
        assert f.terms() == SAMPLES[kind][0].terms() != []


def test_is_prime_matches_a_sieve():
    top = 10_000
    sieve = [False, False] + [True] * (top - 1)
    for d in range(2, math.isqrt(top) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [p for p in range(-5, top + 1) if is_prime(p)] == \
        [p for p in range(top + 1) if sieve[p]]


def test_is_prime_screens_small_numbers_without_a_power(monkeypatch):
    # Below 43^2 trial division by the primes up to 41 decides, with no
    # modular power: `check` tests a small p about a dozen times per op.
    # The sieve test above checks the answers.
    def no_pow(*args):
        raise AssertionError("modular power below 43^2")
    monkeypatch.setattr(laurent, "pow", no_pow, raising=False)
    for n in range(-5, 43 * 43):
        is_prime(n)


def test_is_prime_on_large_numbers():
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 9 + 7)
    # A strong pseudoprime to every base up to 37: base 41 exposes it.
    assert not is_prime(399_165_290_221 * 798_330_580_441)
    # Two prime factors near 10^12: trial division up to the root would
    # take about 5 * 10^11 steps.
    assert not is_prime((10 ** 12 + 39) * (10 ** 12 + 61))
    psi13 = 3_317_044_064_679_887_385_961_981
    assert not is_prime(psi13 + 1)
    with pytest.raises(ResourceLimitError, match=f"not below {psi13}"):
        is_prime(psi13)


def test_types_never_compare_equal():
    assert LaurentPoly.zero() != BiLaurent.zero()
    assert LaurentPoly.one() != BiLaurent.one()
    assert BiLaurent.monomial(1, 0) != LaurentPoly.monomial(1)


def test_format_zero_and_negative_leading_term():
    # The formatters read serialized terms, as the text report does.
    assert format_poly([], "t") == "0"
    assert format_bilaurent([]) == "0"
    assert format_poly(LaurentPoly({-2: -1, 0: 3, 1: -1}).serialize(), "t") \
        == "-t^-2 + 3 - t"
    assert format_poly([[0, -4], [2, 2]], "q") == "-4 + 2q^2"
    assert format_bilaurent(
        BiLaurent({(-1, 0): -2, (0, 0): 1, (1, 1): -1}).serialize()) \
        == "-2a^-1 + 1 - az"
    assert format_bilaurent([[[0, 2], -1]]) == "-z^2"


def packed(coeffs, width):
    """sum of c * 2^(width * e): the integer laurent.unpack reads."""
    return sum(c << width * e for e, c in coeffs.items())


class TestUnpack:
    """The one signed-digit decoder, shared by the state sum, the Hecke
    route and the specializations."""

    @pytest.mark.parametrize("width", (8, 16, 24, 64, 136))
    def test_zero(self, width):
        assert unpack(0, width) == {}
        assert unpack(0, width, -7) == {}

    @pytest.mark.parametrize("width", (8, 16, 24, 64, 136))
    def test_extreme_digits(self, width):
        top = (1 << (width - 1)) - 1
        for coeffs in ({0: top}, {0: -top}, {3: -top}, {0: top, 1: -top},
                       {0: -top, 1: top, 2: -top, 5: top},
                       {e: (-1) ** e * top for e in range(9)}):
            assert unpack(packed(coeffs, width), width) == coeffs
            assert unpack(packed(coeffs, width), width, -4) == \
                {e - 4: c for e, c in coeffs.items()}

    def test_random_round_trip(self):
        rng = random.Random(17)
        for _ in range(300):
            bound = rng.choice((1, 100, 1 << 40, 1 << 200))
            width = digit_width(bound)
            coeffs = {e: c for e in rng.sample(range(60), rng.randint(0, 20))
                      if (c := rng.randint(-bound, bound))}
            assert unpack(packed(coeffs, width), width) == coeffs

    @pytest.mark.parametrize("bound,width", [
        (0, 8), (1, 8), (127, 8), (128, 16), ((1 << 15) - 1, 16),
        (1 << 15, 24), (1 << 62, 64), ((1 << 63) - 1, 64), (1 << 63, 72)])
    def test_digit_width(self, bound, width):
        assert digit_width(bound) == width
        assert bound < 1 << (width - 1)
