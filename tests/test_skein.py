import random
import sys
import tracemalloc
from math import comb

import pytest
from reference import arc_cycles, hecke_homfly, termwise_specialize

from linkperiod import skein, skeinroute, statemodel
from linkperiod.diagram import (BraidWord, Crossing, ParseError,
                                PlanarDiagram, closure_components, parse_pd,
                                pd_from_braid, writhe)
from linkperiod.laurent import (BiLaurent, InexactDivisionError, LaurentPoly,
                                quantum_integer)
from linkperiod.selftest import (FIG8_HOMFLY, FIGURE_EIGHT, HOPF, HOPF_HOMFLY,
                                 HOPF_Q2, TREFOIL, TREFOIL_HOMFLY, TREFOIL_Q2,
                                 TREFOIL_Q3)
from linkperiod.vogel import braid_from_pd

UNKNOT = BraidWord(1)

#: PD codes whose faces do not close up on a sphere.  The last two label
#: one code two ways, which the skein route gave different HOMFLYs.
NON_PLANAR = ("X[1,2,3,4] X[3,4,1,2]", "X[1,3,2,4] X[4,3,1,2]",
              "X[2,4,3,1] X[1,4,2,3]")


def homfly_of_diagram(b):
    """The skein route on the diagram of a braid closure."""
    return skeinroute.homfly_diagram(pd_from_braid(b))


def homfly_of_pd(b):
    """skein.homfly on the braid that vogel.braid_from_pd reads back from
    the diagram of a braid closure, with that diagram for the fallback."""
    d = pd_from_braid(b)
    return skein.homfly(braid_from_pd(d), d)


class TestHomfly:
    """Braid cases run on the Hecke-trace route here, on the skein route
    and through the diagram in the subclasses below."""

    homfly = staticmethod(skein.homfly)

    def test_unknot(self):
        assert self.homfly(UNKNOT) == BiLaurent.one()

    def test_two_unlink(self):
        assert self.homfly(BraidWord(2)) == skein.DELTA

    def test_trefoil(self):
        assert self.homfly(TREFOIL) == TREFOIL_HOMFLY

    def test_mirror_trefoil(self):
        mirror = self.homfly(BraidWord(2, (-1, -1, -1)))
        # Mirroring inverts a.
        assert mirror == BiLaurent({(-2, 0): 2, (-4, 0): -1, (-2, 2): 1})

    def test_hopf(self):
        assert self.homfly(HOPF) == HOPF_HOMFLY

    def test_figure_eight(self):
        assert self.homfly(FIGURE_EIGHT) == FIG8_HOMFLY

    def test_pd_input(self):
        d = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        assert skein.homfly(braid_from_pd(d), d) == TREFOIL_HOMFLY

    def test_reidemeister_invariance_samples(self):
        # sigma1 sigma1^-1 closes to the 2-unlink, sigma1 sigma2 sigma1 =
        # sigma2 sigma1 sigma2 (braid relation) closes to the same link.
        assert self.homfly(BraidWord(2, (1, -1))) == skein.DELTA
        assert self.homfly(BraidWord(3, (1, 2, 1))) == \
            self.homfly(BraidWord(3, (2, 1, 2)))

    def test_distant_unknot_multiplies_delta(self):
        rng = random.Random(41)
        for _ in range(10):
            letters = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 4)))
            inner = BraidWord(2, letters)
            padded = BraidWord(3, letters)  # strand 3 untouched
            assert self.homfly(padded) == self.homfly(inner) * skein.DELTA

    def test_skein_relation_random(self):
        # a^-1 P(L+) - a P(L-) = z P(L0) at a random positive-crossing site.
        rng = random.Random(43)
        a_inv = BiLaurent.monomial(-1, 0)
        a_pos = BiLaurent.monomial(1, 0)
        z = BiLaurent.monomial(0, 1)
        for _ in range(20):
            letters = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 6))]
            i = rng.randrange(len(letters))
            j = abs(letters[i])
            plus = list(letters)
            plus[i] = j
            minus = list(letters)
            minus[i] = -j
            zero = letters[:i] + letters[i + 1:]
            Pp = self.homfly(BraidWord(3, tuple(plus)))
            Pm = self.homfly(BraidWord(3, tuple(minus)))
            P0 = self.homfly(BraidWord(3, tuple(zero)))
            assert a_inv * Pp - a_pos * Pm == z * P0


class TestHomflyOnDiagram(TestHomfly):
    homfly = staticmethod(homfly_of_diagram)


class TestHomflyViaBraidFromPd(TestHomfly):
    homfly = staticmethod(homfly_of_pd)


def long_braid(seed):
    """A seeded random braid of 16-24 letters on 3-6 strands."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                              for _ in range(rng.randint(16, 24))))


def shifted(b, k):
    """The letters of b moved k strands to the right."""
    return tuple(e + k if e > 0 else e - k for e in b.letters)


def mirror_image(P):
    """P(a^-1, -z)."""
    return BiLaurent({(-r, s): v * (-1) ** s for (r, s), v in P.terms()})


LONG_SEEDS = range(300, 308)


class TestLongBraids:
    """Properties of the Hecke-trace route at sizes the exhaustive sweep
    cannot reach."""

    homfly = staticmethod(skein.homfly)

    @pytest.mark.parametrize("seed", LONG_SEEDS)
    def test_conjugation_and_stabilization(self, seed):
        b = long_braid(seed)
        P = self.homfly(b)
        for r in (1, len(b) // 2, len(b) - 1):
            rotated = BraidWord(b.n, b.letters[r:] + b.letters[:r])
            assert self.homfly(rotated) == P
        for s in (1, -1):
            stab = BraidWord(b.n + 1, b.letters + (s * b.n,))
            assert self.homfly(stab) == P

    @pytest.mark.parametrize("seed", LONG_SEEDS)
    def test_braid_relations(self, seed):
        b = long_braid(seed)
        n = max(b.n, 4)          # room for two far-apart generators
        rng = random.Random(seed)
        k = rng.randrange(len(b) + 1)
        i = rng.randint(1, n - 2)
        s = rng.choice((1, -1))

        def spliced(*extra):
            return self.homfly(BraidWord(
                n, b.letters[:k] + tuple(s * e for e in extra) + b.letters[k:]))

        assert spliced(i, i + 1, i) == spliced(i + 1, i, i + 1)
        j = rng.randint(1, n - 3)
        assert spliced(j, j + 2) == spliced(j + 2, j)

    @pytest.mark.parametrize("seed", LONG_SEEDS)
    def test_mirror_and_reversal(self, seed):
        b = long_braid(seed)
        P = self.homfly(b)
        mirror = BraidWord(b.n, tuple(-e for e in b.letters))
        assert self.homfly(mirror) == mirror_image(P)
        assert self.homfly(BraidWord(b.n, b.letters[::-1])) == P

    @pytest.mark.parametrize("seed", LONG_SEEDS)
    def test_split_union_and_connected_sum(self, seed):
        b1, b2 = long_braid(seed), long_braid(seed + 1000)
        P1, P2 = self.homfly(b1), self.homfly(b2)
        split = BraidWord(b1.n + b2.n, b1.letters + shifted(b2, b1.n))
        assert self.homfly(split) == P1 * P2 * skein.DELTA
        # Strand b1.n closes up through both braids.
        joined = BraidWord(b1.n + b2.n - 1,
                           b1.letters + shifted(b2, b1.n - 1))
        assert self.homfly(joined) == P1 * P2

    @pytest.mark.parametrize("seed", (300, 302, 305))
    def test_matches_skein_route(self, seed):
        b = long_braid(seed)
        assert skein.homfly(b) == homfly_of_diagram(b)


def kinks(n, signs):
    """Letters 1, 3, 5, ... with the given signs on n strands: each closes
    to an unknot, split from the others."""
    return BraidWord(n, tuple(s * i for s, i in zip(signs, range(1, n, 2))))


class TestHeckeTermLimit:
    """Braids whose Hecke element can reach min(n!, 2^k) basis elements for
    k letters on n strands.  No wall-clock asserts: each case counts the
    braids that left the Hecke route for the skein route."""

    @staticmethod
    def fallbacks(monkeypatch):
        seen = []
        real = skein.pd_from_braid

        def spy(b):
            seen.append(b)
            return real(b)

        monkeypatch.setattr(skein, "pd_from_braid", spy)
        return seen

    def test_far_apart_negative_letters(self, monkeypatch):
        # 2^24 basis elements as given; its positive mirror needs one.
        b = kinks(48, [-1] * 24)
        seen = self.fallbacks(monkeypatch)
        assert skein.homfly(b) == skein.DELTA ** 23
        assert seen == []
        assert homfly_of_diagram(b) == skein.DELTA ** 23

    def test_negative_coxeter_word(self, monkeypatch):
        # 2^23 basis elements as given; the closure is an unknot.
        b = BraidWord(24, tuple(range(-1, -24, -1)))
        seen = self.fallbacks(monkeypatch)
        assert skein.homfly(b) == BiLaurent.one()
        assert skein.homfly(BraidWord(24, tuple(-e for e in b.letters))) == \
            BiLaurent.one()
        assert seen == []

    def test_mixed_signs_take_the_skein_route(self, monkeypatch):
        # 2^16 basis elements either way round, past HECKE_MAX_TERMS.
        b = kinks(64, [-1, 1] * 16)
        seen = self.fallbacks(monkeypatch)
        assert skein.homfly(b) == skein.DELTA ** 31
        assert seen == [b]

    @pytest.mark.parametrize("limit", (1, 2, 8))
    def test_any_limit_gives_the_same_polynomial(self, monkeypatch, limit):
        rng = random.Random(59)
        words = [BraidWord(4, tuple(rng.choice((1, -1)) * rng.randint(1, 3)
                                    for _ in range(rng.randint(0, 8))))
                 for _ in range(30)]
        expected = [skein.homfly(b) for b in words]
        monkeypatch.setattr(skein, "HECKE_MAX_TERMS", limit)
        seen = self.fallbacks(monkeypatch)
        assert [skein.homfly(b) for b in words] == expected
        assert seen


def random_word(rng, max_n=6, max_letters=22):
    """A random braid on 1..max_n strands with at most max_letters letters
    of either sign."""
    n = rng.randint(1, max_n)
    length = rng.randint(0, max_letters) if n > 1 else 0
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                              for _ in range(length)))


def mirror_word(b):
    return BraidWord(b.n, tuple(-e for e in b.letters))


class TestPackedHecke:
    """The packed Hecke route (skein._homfly_braid) against the same pass
    on BiLaurent coefficients (reference.hecke_homfly), which multiplies
    out every word as given, and against the skein route."""

    def test_random_words_and_mirrors(self):
        rng = random.Random(71)
        mirrored = 0
        for _ in range(400):
            b = random_word(rng)
            for word in (b, mirror_word(b)):
                mirrored += 2 * sum(e < 0 for e in word.letters) > len(word)
                assert skein._homfly_braid(word) == hecke_homfly(word)
        assert mirrored > 200

    def test_random_words_against_skein_route(self):
        rng = random.Random(73)
        for _ in range(24):
            b = random_word(rng)
            assert skein._homfly_braid(b) == homfly_of_diagram(b)

    def test_powers_of_one_generator(self):
        # Binomial coefficients: the largest of sigma_1^60 is past 2^38.
        for k in range(61):
            for e in (1, -1):
                b = BraidWord(2, (e,) * k)
                assert skein._homfly_braid(b) == hecke_homfly(b)
        top = max(map(abs, hecke_homfly(BraidWord(2, (1,) * 60))._c.values()))
        assert top > 1 << 38

    @pytest.mark.parametrize("n", (5, 6, 7))
    def test_full_twists(self, n):
        b = BraidWord(n, tuple(range(1, n)) * n)
        assert skein._homfly_braid(b) == hecke_homfly(b)
        assert skein._homfly_braid(mirror_word(b)) == \
            mirror_image(hecke_homfly(b))

    def test_alternating_word(self):
        b = BraidWord(3, (1, -2) * 20)
        assert skein._homfly_braid(b) == hecke_homfly(b)


def relabelled(crossings, label):
    return [Crossing(c.sign, *map(label, c.arcs())) for c in crossings]


def connected_sum(diagrams, rng):
    """One diagram of the connected sum of knot diagrams: each next one is
    joined at a random arc to a random arc of the sum so far, arcs a and b
    running tail -> head becoming a: tail(a) -> head(b) and b: tail(b) ->
    head(a).  Arc labels and crossing order are then shuffled."""
    total: list[Crossing] = []
    for d in diagrams:
        shift = max((x for c in total for x in c.arcs()), default=0)
        part = relabelled(d.crossings, lambda x: x + shift)
        if total:
            swap = {rng.choice(sorted({x for c in total for x in c.arcs()})):
                    rng.choice(sorted({x for c in part for x in c.arcs()}))}
            swap.update({b: a for a, b in swap.items()})
            total = [c._replace(under_in=swap.get(c.under_in, c.under_in),
                                over_in=swap.get(c.over_in, c.over_in))
                     for c in total + part]
        else:
            total = part
    labels = sorted({x for c in total for x in c.arcs()})
    shuffled = dict(zip(labels, rng.sample(labels, len(labels))))
    total = relabelled(total, shuffled.get)
    rng.shuffle(total)
    return PlanarDiagram(tuple(total))


def summand(rng, max_letters):
    """A random knot closure on 2-4 strands that uses every generator."""
    while True:
        n = rng.randint(2, 4)
        b = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(1, max_letters))))
        if len(closure_components(b)) == 1 and \
                {abs(e) for e in b.letters} == set(range(1, n)):
            return b


def seifert_circles(d):
    """The number of cycles of under_in -> over_out, over_in -> under_out."""
    succ = {}
    for c in d.crossings:
        succ[c.under_in] = c.over_out
        succ[c.over_in] = c.under_out
    seen, count = set(), 0
    for a in succ:
        if a not in seen:
            count += 1
            while a not in seen:
                seen.add(a)
                a = succ[a]
    return count


class TestBraidFromPd:
    """Diagrams read back as braids by Vogel's algorithm.  Connected sums
    of braid closures put Seifert circles side by side, so reading them
    needs Vogel moves; the HOMFLY of a connected sum is the product of
    the summands' polynomials."""

    @pytest.mark.parametrize("seed", range(6))
    def test_connected_sums(self, seed):
        rng = random.Random(7100 + seed)
        most = 0
        for _ in range(25):
            parts = [summand(rng, 4) for _ in range(rng.randint(2, 4))]
            parts = [BraidWord(b.n, tuple(-e for e in b.letters))
                     if rng.random() < 0.5 else b for b in parts]
            d = connected_sum([pd_from_braid(b) for b in parts], rng)
            expected = BiLaurent.one()
            for b in parts:
                expected = expected * skein.homfly(b)
            b = braid_from_pd(d)
            s = seifert_circles(d)
            assert b.n == s
            moves, odd = divmod(len(b) - len(d.crossings), 2)
            assert odd == 0 and 0 <= moves <= (s - 1) * (s - 2) // 2
            # The moves keep the link facts that cli reads off the braid.
            assert (writhe(b), len(closure_components(b))) == \
                (sum(c.sign for c in d.crossings),
                 len(arc_cycles(d.crossings)) + d.free_loops)
            most = max(most, moves)
            assert skein.homfly(b, d) == expected
            if len(d.crossings) <= 10:
                assert skeinroute.homfly_diagram(d) == expected
        assert most > 0

    def test_closures_need_no_moves(self):
        rng = random.Random(7200)
        for _ in range(100):
            b = long_braid(rng.randrange(10 ** 6))
            d = pd_from_braid(b)
            back = braid_from_pd(d)
            assert (back.n, len(back)) == (b.n, len(b))
            assert skein.homfly(back) == skein.homfly(b)

    @pytest.mark.parametrize("text, braid, polynomial", [
        ("X[1,1,2,2]", BraidWord(2, (-1,)), BiLaurent.one()),
        ("X[1,2,2,1]", BraidWord(2, (1,)), BiLaurent.one()),
        ("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]",
         BraidWord(3, (1, -2, 1, -2)), FIG8_HOMFLY),
        ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] "
         "X[7,10,8,11] X[9,12,10,7] X[11,8,12,9]",
         BraidWord(4, (1, 1, 1, 3, 3, 3)),
         TREFOIL_HOMFLY * TREFOIL_HOMFLY * skein.DELTA),
    ], ids=["kink-negative", "kink-positive", "figure-eight",
            "split-trefoils"])
    def test_small_diagrams(self, text, braid, polynomial):
        d = parse_pd(text)
        assert braid_from_pd(d) == braid
        assert skein.homfly(braid, d) == skeinroute.homfly_diagram(d) == \
            polynomial

    @staticmethod
    def skein_calls(monkeypatch):
        seen = []
        real = skeinroute.homfly_diagram

        def spy(d):
            seen.append(d)
            return real(d)

        monkeypatch.setattr(skeinroute, "homfly_diagram", spy)
        return seen

    def test_non_planar_is_refused(self):
        for text in NON_PLANAR:
            with pytest.raises(ParseError,
                               match="^this PD code is not planar$"):
                braid_from_pd(parse_pd(text))

    def test_term_limit_falls_back_to_the_given_diagram(self, monkeypatch):
        rng = random.Random(7300)
        diagrams = [pd_from_braid(summand(rng, 5)) for _ in range(10)]
        diagrams += [connected_sum([pd_from_braid(summand(rng, 3))
                                    for _ in range(2)], rng)
                     for _ in range(5)]
        braids = [braid_from_pd(d) for d in diagrams]
        expected = [skein.homfly(b, d) for b, d in zip(braids, diagrams)]
        monkeypatch.setattr(skein, "HECKE_MAX_TERMS", 1)
        seen = self.skein_calls(monkeypatch)
        assert [skein.homfly(b, d) for b, d in zip(braids, diagrams)] == \
            expected
        # Every diagram too big for one basis element went to the skein
        # route as given, not as the diagram of its longer braid.
        assert len(seen) >= 10
        assert all(any(x is d for d in diagrams) for x in seen)

    def test_long_braid_of_a_24_crossing_diagram(self, monkeypatch):
        parts = [BraidWord(2, (1,) * 7), BraidWord(2, (-1,) * 7),
                 BraidWord(2, (1,) * 5), BraidWord(2, (-1,) * 5)]
        d = connected_sum([pd_from_braid(b) for b in parts],
                          random.Random(7400))
        braid = braid_from_pd(d)
        assert len(d.crossings) == 24 and len(braid) > len(d.crossings)
        expected = BiLaurent.one()
        for b in parts:
            expected = expected * skein.homfly(b)
        seen = self.skein_calls(monkeypatch)
        assert skein.homfly(braid, d) == expected
        assert seen == []


class TestQuantumSln:
    def test_unknot_all_n(self):
        one = skein.homfly(UNKNOT)
        for N in range(2, 6):
            inv = skein.quantum_sln(one, N)
            assert inv == LaurentPoly(
                {e: 1 for e in range(-N + 1, N, 2)})

    def test_trefoil_fixtures(self):
        P = skein.homfly(TREFOIL)
        assert skein.quantum_sln(P, 2) == TREFOIL_Q2
        assert skein.quantum_sln(P, 3) == TREFOIL_Q3

    def test_hopf_n2(self):
        assert skein.quantum_sln(skein.homfly(HOPF), 2, m=2) == HOPF_Q2

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            skein.quantum_sln(TREFOIL_HOMFLY, 1)

    def test_component_mismatch(self):
        # Hopf polynomial has z-exponent -1; claiming a knot must fail.
        with pytest.raises(ValueError):
            skein.quantum_sln(HOPF_HOMFLY, 2, m=1)


class TestJones:
    """skein.jones returns V in s = sqrt(t): the trefoil's t + t^3 - t^4 is
    s^2 + s^6 - s^8."""

    def test_trefoil(self):
        V = skein.jones(TREFOIL_HOMFLY)
        assert V == LaurentPoly({2: 1, 6: 1, 8: -1})

    def test_figure_eight(self):
        V = skein.jones(FIG8_HOMFLY)
        assert V == LaurentPoly({-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})

    def test_unknot(self):
        assert skein.jones(BiLaurent.one()) == LaurentPoly({0: 1})

    def test_hopf_reported_in_s(self):
        # A link of two components has only odd powers of s.
        V = skein.jones(HOPF_HOMFLY)
        assert V == LaurentPoly({1: -1, 5: -1})

    def test_sl2_bridge(self):
        # (-1)^(m-1) [2]_q V(s = q^-1) equals the N=2 quantum invariant of
        # an m-component link.
        rng = random.Random(47)
        bracket2 = LaurentPoly({1: 1, -1: 1})
        seen = []
        for _ in range(100):
            b = random_word(rng, 4, 10)
            m = len(closure_components(b))
            P = skein.homfly(b)
            vq = skein.jones(P).compose_power(-1)
            assert (bracket2 * vq).scale((-1) ** (m - 1)) == \
                skein.quantum_sln(P, 2, m), b.text()
            seen.append(m)
        assert set(seen) == {1, 2, 3, 4} and seen.count(1) >= 10


class TestAlexander:
    def test_trefoil(self):
        assert skein.alexander(TREFOIL_HOMFLY) == \
            LaurentPoly({2: 1, 1: -1, 0: 1})

    def test_figure_eight(self):
        assert skein.alexander(FIG8_HOMFLY) == \
            LaurentPoly({2: 1, 1: -3, 0: 1})

    def test_unknot(self):
        assert skein.alexander(BiLaurent.one()) == LaurentPoly({0: 1})

    def test_rejects_links(self):
        with pytest.raises(ValueError):
            skein.alexander(HOPF_HOMFLY)


class TestP0:
    def test_trefoil(self):
        assert skein.p0_part(TREFOIL_HOMFLY) == LaurentPoly({2: 2, 4: -1})

    def test_figure_eight(self):
        assert skein.p0_part(FIG8_HOMFLY) == \
            LaurentPoly({-2: 1, 0: -1, 2: 1})

    def test_evaluates_to_one_at_a_1(self):
        # P0(1) = 1 for every knot: check on random 3-braid knots.
        rng = random.Random(53)
        from linkperiod.diagram import closure_components
        found = 0
        while found < 10:
            letters = tuple(rng.choice((1, -1, 2, -2))
                            for _ in range(rng.randint(1, 6)))
            b = BraidWord(3, letters)
            if len(closure_components(b)) != 1:
                continue
            found += 1
            p0 = skein.p0_part(skein.homfly(b))
            assert sum(c for _, c in p0.terms()) == 1


def termwise_values(P, m, Ns=(2, 3, 4)):
    """What quantum_sln (each N of Ns), jones, and for knots alexander and
    p0_part should return, by reference.termwise_specialize."""
    x_minus_inverse = LaurentPoly({1: 1, -1: -1})
    out = {N: quantum_integer(N) * termwise_specialize(
        P, LaurentPoly.monomial(-N), x_minus_inverse)
        for N in Ns}
    out["jones"] = termwise_specialize(P, LaurentPoly.monomial(2),
                                       x_minus_inverse)
    if m == 1:
        v = termwise_specialize(P, LaurentPoly.one(), x_minus_inverse)
        t = {e // 2: c for e, c in v.terms()}
        low = min(t, default=0)
        sign = -1 if t and t[max(t)] < 0 else 1
        out["alexander"] = LaurentPoly(
            {e - low: sign * c for e, c in t.items()})
        out["p0"] = termwise_specialize(P, LaurentPoly.monomial(1),
                                        LaurentPoly.zero())
    return out


def specialized_values(P, m, Ns=(2, 3, 4)):
    out = {N: skein.quantum_sln(P, N, m) for N in Ns}
    out["jones"] = skein.jones(P)
    if m == 1:
        out["alexander"] = skein.alexander(P)
        out["p0"] = skein.p0_part(P)
    return out


def assert_same_values(P, m, Ns=(2, 3, 4)):
    assert specialized_values(P, m, Ns) == termwise_values(P, m, Ns)


class TestSpecializeAgainstTermwise:
    """The Horner pass of skein._specialize against the term-by-term
    substitution of reference.termwise_specialize."""

    def test_random_links(self):
        rng = random.Random(61)
        seen_components, seen_z_min = set(), set()
        for _ in range(240):
            n = rng.randint(2, 4)
            letters, length = [], rng.randint(1, 18)
            while len(letters) < length:
                g = rng.randint(1, n - 1) * rng.choice((1, -1))
                letters += [g, g] if rng.random() < 0.5 else [g]
            b = BraidWord(n, tuple(letters))
            P = skein.homfly(b)
            m = len(closure_components(b))
            seen_components.add(m)
            seen_z_min.add(P.z_min())
            assert_same_values(P, m)
        assert seen_components == {1, 2, 3, 4}
        assert min(seen_z_min) == -3

    @pytest.mark.parametrize("P", [
        BiLaurent({(1, 2): 3, (-3, 2): -1, (0, 4): 2, (2, 6): 1}),
        BiLaurent.one(),
    ], ids=["z-powers-all-positive", "one"])
    def test_knot_shaped(self, P):
        assert_same_values(P, 1)

    def test_closures_of_one_to_six_components(self):
        # Up to five negative z powers, so the packed integer is divided by
        # (x^2 - 1)^k for k up to 5, then multiplied by [N] for N up to 8.
        rng = random.Random(71)
        for m in range(1, 7):
            found = 0
            while found < 6:
                n = rng.randint(m, 7)
                b = BraidWord(n, tuple(
                    rng.choice((1, -1)) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(0, 14))) if n > 1 else ())
                if len(closure_components(b)) != m:
                    continue
                found += 1
                P = skein.homfly(b)
                assert P.z_min() == 1 - m
                assert_same_values(P, m, range(2, 9))

    def test_torus_links(self):
        # T(2, 2j): digits of the quotient by x^2 - 1 grow with j.
        for j in range(1, 31):
            b = BraidWord(2, (1,) * (2 * j))
            assert_same_values(skein.homfly(b), 2, range(2, 9))

    def test_four_component_control(self):
        # The 246-letter closure of (s1^2 s2^2 s3^2)^41: z powers from -3
        # to 243, so the Horner pass runs 247 steps on one integer.
        b = BraidWord(4, (1, 1, 2, 2, 3, 3) * 41)
        P = skein.homfly(b)
        assert (P.z_min(), max(s for _, s in P._c)) == (-3, 243)
        assert_same_values(P, 4, range(2, 9))

    def test_width_holds_the_binomial_factor(self):
        # The 6-component unlink: P = delta^5, whose packed dividend has
        # digits adding up to 32.  At N = 10 its invariant [10]^6 has a
        # coefficient of 55,252, and 32 * 10 * 2^5 alone would give 16-bit
        # digits, which hold at most 32,767; the factor C(span/2 + 5, 5)
        # of the width makes room for the quotient.
        P = skein.homfly(BraidWord(6))
        assert P == skein.DELTA ** 5
        inv = skein.quantum_sln(P, 10, 6)
        assert inv == quantum_integer(10) ** 6
        assert max(c for _, c in inv.terms()) == 55252
        assert_same_values(P, 6, range(2, 11))

    @pytest.mark.parametrize("b", [
        TREFOIL, HOPF, BraidWord(4, (1, 1, 2, 2, 3, 3))],
        ids=["trefoil", "hopf", "four-component"])
    def test_large_n(self, b):
        # x^2N - 1 goes into the one division by (x^2 - 1)^(k+1), k up to
        # 3 here; [1000] has 1000 terms.
        P = skein.homfly(b)
        m = len(closure_components(b))
        assert_same_values(P, m, (1000,))
        assert skein.quantum_sln(P, 1000, m) == \
            statemodel.invariant_statesums(b, [1000])[1000]

    @pytest.mark.parametrize("specialize", [
        skein.jones, lambda P: skein.quantum_sln(P, 3, 2)],
        ids=["jones", "quantum_sln"])
    def test_inexact_quotient_raises(self, specialize):
        # z^-1 alone is no link's polynomial: 1 / (x - x^-1) is not a
        # Laurent polynomial.
        with pytest.raises(InexactDivisionError):
            specialize(BiLaurent({(0, -1): 1}))

    def test_odd_positive_z_powers(self):
        # s_min = 1 > 0, a branch no HOMFLY of a real link reaches.
        assert_same_values(BiLaurent({(1, 1): 2, (-2, 3): -1, (0, 5): 4}), 2)

    def test_every_small_power_of_a(self):
        rng = random.Random(67)
        z = LaurentPoly({1: 1, -1: -1})
        polys = [BiLaurent({(1, 2): 3, (-3, 2): -1, (0, 4): 2, (2, 6): 1})]
        # Long words whose Horner digits outgrow their HOMFLY coefficients.
        polys += [skein.homfly(b) for b in (
            BraidWord(3, (1, -2) * 20), BraidWord(2, (1,) * 60),
            BraidWord(5, (1, 2, 3, 4) * 5))]
        while len(polys) < 40:
            polys.append(skein.homfly(random_word(rng, 5, 14)))
        assert min(P.z_min() for P in polys) <= -4
        for P in polys:
            for k in range(-5, 6):
                assert skein._specialize(P, k) == termwise_specialize(
                    P, LaurentPoly.monomial(k), z)


def assert_built_as_constructed(f, cls):
    """f equals and hashes like cls(dict(f.terms())), and its map holds
    int keys (pairs of ints for BiLaurent) and nonzero int values, types
    checked exactly: the decoders of packed integers build their results
    with `_like`, which skips the constructor's normalization."""
    rebuilt = cls(dict(f.terms()))
    assert f == rebuilt and hash(f) == hash(rebuilt)
    for key, v in f._c.items():
        parts = key if cls is BiLaurent else (key,)
        assert type(parts) is tuple and len(parts) == (2 if cls is BiLaurent
                                                       else 1)
        assert {*map(type, parts)} == {int}
        assert type(v) is int and v != 0


def bound_term_by_term(P, a_exp, N):
    """2^(k+1) D C(span/2 + k, k) N, the bound of the module docstring
    that the width of `_specialize` holds, read term by term."""
    terms = [(a_exp * r, s, v) for (r, s), v in P._c.items()]
    top = max((s for _, s, _ in terms), default=0)
    k = max(-min((s for _, s, _ in terms), default=0), 0)
    low = min((e for e, _, _ in terms), default=0) - (top + k)
    span = max((e + s for e, s, _ in terms), default=0) - low + k
    D = sum(abs(v) << (s + k) for _, s, v in terms)
    return D * comb(span // 2 + k, k) * N << (k + 1)


class TestDecodedValues:
    """HOMFLY, the specializations and the state sums are decoded from
    packed integers straight into values; each is the value the
    constructor would build."""

    @staticmethod
    def braids():
        rng = random.Random(83)
        return [UNKNOT, BraidWord(3), BraidWord(2, (-1, -1)),
                BraidWord(3, (1, -2, -2, 1, -2))] + [
            random_word(rng, 5, 14) for _ in range(80)]

    def test_homfly(self):
        mirrored = negative_z = 0
        for b in self.braids():
            P = skein.homfly(b)
            assert_built_as_constructed(P, BiLaurent)
            mirrored += 2 * sum(e < 0 for e in b.letters) > len(b)
            negative_z += P.z_min() < 0
        assert mirrored > 10 and negative_z > 10

    def test_specializations(self):
        cases = [(BiLaurent.zero(), 1)] + [
            (skein.homfly(b), len(closure_components(b)))
            for b in self.braids()]
        for P, m in cases:
            values = [skein.quantum_sln(P, N, m) for N in range(2, 6)]
            values.append(skein.jones(P))
            if m == 1:
                values += [skein.alexander(P), skein.p0_part(P)]
            for f in values:
                assert_built_as_constructed(f, LaurentPoly)
        zero = BiLaurent.zero()
        assert skein.alexander(zero) == skein.jones(zero) == \
            skein.quantum_sln(zero, 3) == LaurentPoly.zero()

    def test_state_sums(self):
        for b in self.braids():
            if b.n <= 4 and len(b) <= 10:
                for f in statemodel.brackets(b, [2, 3]).values():
                    assert_built_as_constructed(f, LaurentPoly)

    def test_width_holds_the_docstring_bound(self, monkeypatch):
        # The width is read off the bound of the module docstring, summed
        # in one pass over the terms; its value must be the term-by-term
        # one, 2^k factor and exponent span included.
        bounds = []
        digit_width = skein.digit_width

        def spy(bound):
            bounds.append(bound)
            return digit_width(bound)
        polys = [(skein.homfly(b), len(closure_components(b)))
                 for b in self.braids()]
        # Terms whose parities differ, unlike a link's: the span is odd
        # at even N, so a one-off span changes C(span/2 + k, k).
        polys += [(BiLaurent({(1, 1): 2, (-2, 3): -1, (0, 5): 4}), 2),
                  (skein.DELTA * BiLaurent({(0, 0): 1, (1, 1): 1}), 2)]
        monkeypatch.setattr(skein, "digit_width", spy)
        for P, m in polys:
            for N in range(2, 9):
                bounds.clear()
                skein.quantum_sln(P, N, m)
                assert bounds == [bound_term_by_term(P, -N, N)]
            bounds.clear()
            skein.jones(P)
            assert bounds == [bound_term_by_term(P, 2, 1)]
            if m == 1:
                bounds.clear()
                skein.alexander(P)
                assert bounds == [bound_term_by_term(P, 0, 1)]


class TestDiagramFrontier:
    """The skein route is one loop over a frontier of diagrams: no
    recursion, and only the diagrams still waiting are held."""

    def test_recursion_limit_is_left_alone(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            skeinroute.homfly_diagram(parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"))
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old)

    def test_long_diagram(self):
        b = BraidWord(2, (1,) * 61)
        assert skeinroute.homfly_diagram(pd_from_braid(b)) == skein.homfly(b)

    def test_memory_peak(self):
        d = pd_from_braid(BraidWord(3, (1, 2) * 7))
        tracemalloc.start()
        try:
            skeinroute.homfly_diagram(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_cancelled_coefficient_leaves_the_frontier(self, monkeypatch):
        # Two skein steps reach one diagram of this closure with opposite
        # coefficients: the diagram is dropped, not expanded times zero.
        zero_products = []
        mul = BiLaurent.__mul__

        def spy(f, g):
            if f.is_zero() or g.is_zero():
                zero_products.append((f, g))
            return mul(f, g)

        b = BraidWord(3, (-1, -2, -1, 2, -1, 2, -2, 1))
        monkeypatch.setattr(BiLaurent, "__mul__", spy)
        P = homfly_of_diagram(b)
        monkeypatch.undo()
        assert zero_products == []
        assert P == skein.homfly(b)

    def test_empty_diagram_has_no_components(self):
        with pytest.raises(ValueError, match="no components"):
            skeinroute.homfly_diagram(PlanarDiagram((), 0))
        with pytest.raises(ParseError, match="empty"):
            braid_from_pd(PlanarDiagram((), 0))


def test_cache_reuse_is_consistent():
    # HOMFLY keeps nothing between calls; a repeat call starts afresh.
    d = pd_from_braid(TREFOIL)
    first = skein.homfly(braid_from_pd(d), d)
    second = skein.homfly(braid_from_pd(d), d)
    assert first == second == TREFOIL_HOMFLY
