import itertools
import math
import random
import re
import tracemalloc
from unittest import mock

import pytest

from linkperiod import cli, criteria, laurent, skein
from linkperiod.diagram import BraidWord, linking_tuple, power
from linkperiod.laurent import (LaurentPoly, ResourceLimitError,
                                quantum_integer, reduce)
from linkperiod.selftest import HOPF_Q2, TREFOIL_Q2, TREFOIL_Q3
from reference import all_k_plus_candidates, all_tuple_link_candidates

UNKNOT_Q2 = LaurentPoly({1: 1, -1: 1})

#: (p, m) pairs on which the orbit enumeration is compared with trying
#: all p^m tuples; the slowest, (7, 4) and (13, 3), try about 2,000.
ORACLE_CASES = ([(p, m) for p in (2, 3, 5, 7, 11, 13) for m in (1, 2, 3)]
                + [(p, 4) for p in (2, 3, 5, 7)])


def random_closure(rng: random.Random, m: int, strands: tuple[int, int],
                   letters: tuple[int, int], p: int = 1) -> BraidWord:
    """w^p for a random word w whose p-th power closes up to m components."""
    while True:
        n = rng.randint(max(strands[0], m), strands[1])
        gens = [e for e in range(1 - n, n) if e]
        w = BraidWord(n, tuple(rng.choice(gens)
                               for _ in range(rng.randint(*letters))))
        wp = power(w, p)
        if len(linking_tuple(wp)) == m:
            return wp


def torus_roots(p: int):
    """Each w with w^p the braid of a torus knot T(a, b), 2 <= a < b
    coprime, p | ab, ab <= 60: w = (s_1 ... s_(n-1))^(m/p) on n strands,
    where n is the one of a, b that p does not divide and m the other."""
    for a in range(2, 8):
        for b in range(a + 1, 60 // a + 1):
            if math.gcd(a, b) == 1 and a * b % p == 0:
                n, m = (a, b) if b % p == 0 else (b, a)
                yield BraidWord(n, tuple(range(1, n)) * (m // p))


class TestRhsSum:
    def test_single_component(self):
        assert criteria.rhs_sum(2, (0,)) == LaurentPoly({0: 2})
        assert criteria.rhs_sum(2, (1,)) == LaurentPoly({1: 1, -1: 1})
        assert criteria.rhs_sum(3, (2,)) == LaurentPoly({4: 1, 0: 1, -4: 1})

    def test_product_over_components(self):
        assert criteria.rhs_sum(2, (1, 1)) == \
            quantum_integer(2) * quantum_integer(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            criteria.rhs_sum(1, (1,))
        with pytest.raises(ValueError):
            criteria.rhs_sum(2, ())


class TestKnotCandidates:
    def test_trefoil_p3(self):
        assert criteria.knot_candidates(TREFOIL_Q2, 3, 2) == frozenset({1, 2})

    def test_trefoil_p5_empty(self):
        assert criteria.knot_candidates(TREFOIL_Q2, 5, 2) == frozenset()

    def test_unknot_matches_k1(self):
        # The unknot invariant is the k=1 candidate sum on the nose.
        for p in (3, 5, 7):
            c = criteria.knot_candidates(UNKNOT_Q2, p, 2)
            assert {1, p - 1} <= c

    def test_plus_variant_trefoil(self):
        c = criteria.knot_candidates(TREFOIL_Q2, 3, 2, plus=True)
        assert c == frozenset({(1, "+"), (2, "-"), (4, "-"), (5, "+")})

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
    def test_minus_matches_scan(self, p):
        # Two random knots and a p-periodic one, w^p, against reducing r_k
        # for every k in 0..p-1.  N = 2..8 takes in N = 0 and +-1 mod p,
        # where the moments leave every k.
        rng = random.Random(223 + p)
        for q in (1, 1, p):
            b = random_closure(rng, 1, (2, 4), (0, 8), q)
            P = skein.homfly(b)
            for N in range(2, 9):
                inv = skein.quantum_sln(P, N, 1)
                target = reduce(inv, p)
                scan = frozenset(k for k in range(p) if target ==
                                 reduce(criteria.rhs_sum(N, (k,)), p))
                hits = criteria.knot_candidates(inv, p, N)
                assert hits == scan, (b.text(), p, N)
                if q == p:
                    assert linking_tuple(b)[0] % p in hits

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_plus_matches_all_k_oracle(self, p):
        # Two random knots and a p-periodic one, w^p, against reducing all
        # 2p signed candidate sums mod (p, q^p + 1).  Both parities of N:
        # the sign of a hit flips with k(N - 1).
        rng = random.Random(131 + p)
        for q in (1, 1, p):
            b = random_closure(rng, 1, (2, 4), (0, 8), q)
            P = skein.homfly(b)
            for N in range(2, 9):
                inv = skein.quantum_sln(P, N, 1)
                hits = criteria.knot_candidates(inv, p, N, plus=True)
                assert hits == all_k_plus_candidates(inv, p, N), (b.text(), p, N)

    @pytest.mark.parametrize("plus", [False, True], ids=["minus", "plus"])
    def test_memory_linear_in_p(self, plus):
        # The search keeps p/2 sparse residues of at most N terms each,
        # not p/2 dense lists of p coefficients.
        tracemalloc.start()
        try:
            criteria.knot_candidates(TREFOIL_Q2, 2003, 2, plus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("plus", [False, True], ids=["minus", "plus"])
    def test_memory_flat_in_p(self, plus):
        # A knot's search reads each residue once, in order, so it holds
        # one at a time: at p = 200,003 it stays under the bound that
        # p = 2,003 meets above; holding all p/2 residues takes about 30 MB.
        tracemalloc.start()
        try:
            criteria.knot_candidates(TREFOIL_Q2, 200_003, 2, plus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_plus_builds_one_search(self, monkeypatch):
        # Both signs of +-f(-q) are targets of one walk: one reduction and
        # one set of residues per call.
        spies = [mock.Mock(wraps=criteria.reduce),
                 mock.Mock(wraps=criteria.quantum_residues)]
        monkeypatch.setattr(criteria, "reduce", spies[0])
        monkeypatch.setattr(criteria, "quantum_residues", spies[1])
        c = criteria.knot_candidates(TREFOIL_Q2, 3, 2, plus=True)
        assert c == frozenset({(1, "+"), (2, "-"), (4, "-"), (5, "+")})
        assert [spy.call_count for spy in spies] == [1, 1]

    @pytest.mark.parametrize("p", [1, 2, 4, 9])
    def test_plus_rejects_p2(self, p):
        # Quantum-plus needs an odd prime.
        with pytest.raises(ValueError, match=f"^p must be an odd prime: {p}$"):
            criteria.knot_candidates(TREFOIL_Q2, p, 2, plus=True)

    @pytest.mark.parametrize("plus", [False, True], ids=["minus", "plus"])
    @pytest.mark.parametrize("N", [0, 1])
    def test_n_below_2_rejected(self, N, plus):
        # An empty set would read "not 3-periodic" for the trefoil.
        with pytest.raises(ValueError, match=f"^N must be >= 2: {N}$"):
            criteria.knot_candidates(TREFOIL_Q2, 3, N, plus=plus)

    def test_minus_p2_allowed(self):
        criteria.knot_candidates(TREFOIL_Q2, 2, 2)

    def test_periodic_word_always_has_candidates(self):
        # The closure of w^p, when it is a knot, is p-periodic about the
        # braid axis, so every criterion must keep its axis residue.  The
        # controls are random words, and the torus knots T(a, b) with
        # p | ab and ab <= 60.
        controls = [(p, w) for p in (2, 3, 5, 7, 11) for w in torus_roots(p)]
        rng = random.Random(101)
        for p in (3, 5, 7, 11, 13):
            found = 0
            while found < 4:
                n = rng.randint(2, 4)
                gens = [e for e in range(1 - n, n) if e]
                w = BraidWord(n, tuple(rng.choice(gens)
                                       for _ in range(rng.randint(n - 1, n + 1))))
                if len(linking_tuple(power(w, p))) == 1:
                    controls.append((p, w))
                    found += 1
        assert len(controls) == 100
        for p, w in controls:
            wp = power(w, p)
            lams = linking_tuple(wp)
            rep = cli.build_check_report("braid", wp.text(), p, [2, 3],
                                         list(cli.ALL_CRITERIA),
                                         max_crossings=len(wp))
            assert rep["verdict"] == "undecided", (wp.text(), p)
            assert lams[0] % p in rep["combined_candidates"], (wp.text(), p)


class TestLinkCandidates:
    def test_hopf_p3(self):
        hits = criteria.link_candidates(HOPF_Q2, 3, 2, 2)
        # The true linking tuple of a 3-periodic Hopf-like cover would
        # appear here; for the plain Hopf link the set is whatever the
        # congruence admits -- just check shape and determinism.
        assert all(len(t) == 2 and all(0 <= x < 3 for x in t) for t in hits)
        assert hits == criteria.link_candidates(HOPF_Q2, 3, 2, 2)

    def test_periodic_link_control(self):
        # closure of (sigma1^2)^3 is the (2,6) torus link, 3-periodic
        # with psi = (lambda1, lambda2) = (1, 1) mod 3.
        w = power(BraidWord(2, (1, 1)), 3)
        inv = skein.quantum_sln(skein.homfly(w), 2, 2)
        hits = criteria.link_candidates(inv, 3, 2, 2)
        assert (1, 1) in hits

    def test_work_limit(self, monkeypatch):
        # The orbits to test, C(8000 + 2, 2) for the Hopf link at
        # p = 16001, refused before any residue is built.  The 8 matching
        # orbits of the 7-component control at p = 3, N = 3 hold all
        # 3^7 = 2,187 tuples, not 8 * 2^7 * 7! = 5,160,960, and fit.
        spy = mock.Mock(wraps=criteria.quantum_residues)
        monkeypatch.setattr(criteria, "quantum_residues", spy)
        orbits = ("32012001 orbits to test, C(p//2 + m, m) at p=16001, m=2, "
                  "exceed the work limit of 2000000")
        with pytest.raises(ResourceLimitError,
                           match=f"^{re.escape(orbits)}$"):
            criteria.link_candidates(HOPF_Q2, 16001, 2, 2)
        assert spy.call_count == 0
        w = power(BraidWord(7, (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6)), 3)
        inv = skein.quantum_sln(skein.homfly(w), 3, 7)
        hits = criteria.link_candidates(inv, 3, 3, 7)
        assert len(hits) == 3 ** 7
        assert hits == all_tuple_link_candidates(inv, 3, 3, 7)

    @pytest.mark.parametrize("m, last, first",
                             [(2, 3989, 4001), (3, 449, 457), (4, 157, 163)])
    def test_orbit_count_bounds_p(self, monkeypatch, m, last, first):
        # C(p//2 + m, m) passes 2,000,000 between these primes; the
        # residues are stubbed, so the search itself never runs.
        class Searched(Exception):
            pass

        def residues(p, N):
            raise Searched
        monkeypatch.setattr(criteria, "quantum_residues", residues)
        with pytest.raises(Searched):
            criteria.link_candidates(HOPF_Q2, last, 2, m)
        with pytest.raises(ResourceLimitError, match=f"at p={first}, m={m},"):
            criteria.link_candidates(HOPF_Q2, first, 2, m)

    def test_tuple_count_comes_before_any_expansion(self, monkeypatch):
        # The 5-component control at p = 3, N = 3 matches the 6 orbits of
        # {0, 1}^5; the one with j ones holds C(5, j) * 2^j tuples, 3^5 =
        # 243 in all.
        w = power(BraidWord(5, (1, 1, 2, 2, 3, 3, 4, 4)), 3)
        inv = skein.quantum_sln(skein.homfly(w), 3, 5)
        spy = mock.Mock(wraps=itertools.product)
        monkeypatch.setattr(itertools, "product", spy)
        monkeypatch.setattr(laurent, "MAX_WORK", 242)
        message = ("6 matching orbits of 243 tuples in all at p=3, m=5 "
                   "exceed the work limit of 242")
        with pytest.raises(ResourceLimitError,
                           match=f"^{re.escape(message)}$"):
            criteria.link_candidates(inv, 3, 3, 5)
        assert spy.call_count == 0
        monkeypatch.setattr(laurent, "MAX_WORK", 243)
        hits = criteria.link_candidates(inv, 3, 3, 5)
        assert spy.call_count > 0
        assert hits == all_tuple_link_candidates(inv, 3, 3, 5)
        assert (1, 1, 1, 1, 1) in hits

    @pytest.mark.parametrize("ks", [(0,), (1,), (0, 0, 1), (1, 1, 2, 2),
                                    (0, 1, 2, 3), (2, 2, 2), (0, 1, 1, 2, 2)])
    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_orbit_size_and_orderings(self, ks, p):
        # Each ordering of ks once, and as many tuples in the orbit as
        # the expansion of every permutation finds.
        orderings = list(criteria._orderings(ks))
        assert len(orderings) == len(set(orderings))
        assert set(orderings) == set(itertools.permutations(ks))
        if max(ks) <= p // 2:
            orbit = {t for perm in itertools.permutations(ks)
                     for t in itertools.product(*({k, -k % p} for k in perm))}
            assert criteria._orbit_size(ks, p) == len(orbit)

    @pytest.mark.parametrize("p, N, m, message", [
        (4, 2, 2, "p must be prime: 4"),
        (3, 1, 2, "N must be >= 2: 1"),
        (3, 2, 0, "need at least one component"),
    ])
    def test_errors(self, p, N, m, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            criteria.link_candidates(HOPF_Q2, p, N, m)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_residues_match_reduced_rhs_sum(self, p):
        # r_k is built from the labels directly, not by reducing rhs_sum.
        for N in range(2, 7):
            residues = list(criteria.quantum_residues(p, N))
            assert len(residues) == p // 2 + 1
            for k, r in enumerate(residues):
                assert r == reduce(criteria.rhs_sum(N, (k,)), p), (p, N, k)

    @pytest.mark.parametrize("p, m", ORACLE_CASES)
    def test_matches_all_tuple_oracle(self, p, m):
        # A random closure and a p-periodic one, w^p, for each (p, m);
        # the periodic one must keep its axis linking tuple.  N = 2..8
        # takes in N = 0 and +-1 mod p at p <= 7, where the moments fix no
        # sum of squares, and N = 0 mod p at m >= 2.
        rng = random.Random(109 + 100 * p + m)
        for q in (1, p):
            b = random_closure(rng, m, (2, 5), (0, 8), q)
            P = skein.homfly(b)
            for N in range(2, 9):
                inv = skein.quantum_sln(P, N, m)
                hits = criteria.link_candidates(inv, p, N, m)
                assert hits == all_tuple_link_candidates(inv, p, N, m), \
                    (b.text(), p, N)
                if q == p:
                    assert tuple(x % p for x in linking_tuple(b)) in hits

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_five_components_match_all_tuple_oracle(self, p):
        # At m = 5 the search equals trying all p^5 tuples (3,125 at
        # p = 5), and w^p keeps its axis tuple.
        rng = random.Random(149 + p)
        for q in (1, p):
            b = random_closure(rng, 5, (5, 6), (0, 8), q)
            P = skein.homfly(b)
            for N in (2, 3):
                inv = skein.quantum_sln(P, N, 5)
                hits = criteria.link_candidates(inv, p, N, 5)
                assert hits == all_tuple_link_candidates(inv, p, N, 5), \
                    (b.text(), p, N)
                if q == p:
                    assert tuple(x % p for x in linking_tuple(b)) in hits

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
    @pytest.mark.parametrize("m", (1, 2, 3, 4))
    def test_n_at_least_p(self, p, m):
        # At N = p the residue r_0 = {0: N mod p} is empty, and at p = 2
        # every residue is; p times the invariant reduces to the zero
        # target, which every tuple through an empty residue matches.  The
        # probe then reads coefficient 0 of the product.  At m = 4 only
        # N = p: the p^4 reference takes seconds at N = p + 1.
        rng = random.Random(137 + 100 * p + m)
        b = random_closure(rng, m, (2, 5), (0, 8), p)
        P = skein.homfly(b)
        for N in (p, p + 1) if m < 4 else (p,):
            inv = skein.quantum_sln(P, N, m)
            hits = criteria.link_candidates(inv, p, N, m)
            assert hits == all_tuple_link_candidates(inv, p, N, m), \
                (b.text(), p, N)
            assert tuple(x % p for x in linking_tuple(b)) in hits
            zero = inv.scale(p)
            assert criteria.link_candidates(zero, p, N, m) == \
                all_tuple_link_candidates(zero, p, N, m), (b.text(), p, N)

    def test_products_on_the_four_component_control(self, monkeypatch):
        # The CI control, the closure of (s1^2 s2^2 s3^2)^41, is 41-periodic.
        # At p = 41, N = 2 the walk used to form one product per prefix,
        # C(25, 4) - 1 = 12,649 of them.  A probe of one coefficient at
        # the last coordinate leaves fewer than C(24, 3) = 2,024 plus one
        # per hit.
        control = BraidWord(4, (1, 1, 2, 2, 3, 3) * 41)
        inv = skein.quantum_sln(skein.homfly(control), 2, 4)
        spy = mock.Mock(wraps=criteria._cyclic_product)
        monkeypatch.setattr(criteria, "_cyclic_product", spy)
        hits = criteria.link_candidates(inv, 41, 2, 4)
        assert tuple(x % 41 for x in linking_tuple(control)) in hits
        assert spy.call_count < 12_649 / 4

    def test_periodic_controls_keep_axis_linking(self):
        # The paper's necessary condition for links: the closure of w^p
        # is p-periodic about the braid axis, so its linking tuple mod p
        # survives every N and the verdict is never "not p-periodic".
        rng = random.Random(113)
        for p in (11, 13, 17, 19):
            for m in (2, 3, 4):
                wp = random_closure(rng, m, (2, 5), (3, 7), p)
                assert len(wp) > 24
                rep = cli.build_check_report("braid", wp.text(), p, [2, 3],
                                             list(cli.ALL_CRITERIA),
                                             max_crossings=len(wp))
                assert rep["verdict"] != f"not-{p}-periodic", (wp.text(), p)
                psi = sorted(x % p for x in linking_tuple(wp))
                for hits in rep["criteria"]["quantum-minus"]["per_n"].values():
                    assert psi in hits, (wp.text(), p)

    @pytest.mark.parametrize("m", (5, 6))
    @pytest.mark.parametrize("p", (3, 5))
    def test_five_and_six_component_controls(self, m, p):
        # The closure of (s1^2 s2^2 ... s_(m-1)^2)^p: m components, each
        # linking the axis once, whose counts fit in the work limit.
        w = BraidWord(m, tuple(g for g in range(1, m) for _ in range(2)))
        wp = power(w, p)
        rep = cli.build_check_report("braid", wp.text(), p, [2, 3],
                                     list(cli.ALL_CRITERIA),
                                     max_crossings=len(wp))
        assert rep["verdict"] == "undecided"
        per_n = rep["criteria"]["quantum-minus"]["per_n"]
        assert set(per_n) == {"2", "3"}
        for hits in per_n.values():
            assert [1] * m in hits


class TestMomentPin:
    """The moments t0, t1, t2 of the target, read through q -> 1 + u into
    F_p[u]/(u^3), prune the searches; the exact comparison decides."""

    @staticmethod
    def moments(r: dict[int, int], p: int) -> tuple[int, int, int]:
        return tuple(sum(c * f(e) for e, c in r.items()) % p
                     for f in (lambda e: 1, lambda e: e,
                               lambda e: e * (e - 1) // 2))

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17))
    def test_residue_moments(self, p):
        # r_k goes to N + sigma k^2 u^2, sigma = (N - 1) N (N + 1) / 6.
        for N in range(2, 3 * p):
            sigma = (N - 1) * N * (N + 1) // 6
            for k, r in enumerate(criteria.quantum_residues(p, N)):
                assert self.moments(r, p) == (N % p, 0, sigma * k * k % p)

    def test_square_root(self):
        # Every residue mod every odd prime below 200, and mod 7681 =
        # 15 * 2^9 + 1 and 65537 = 2^16 + 1, whose Tonelli-Shanks loops
        # run deepest.
        for p in [p for p in range(3, 200) if laurent.is_prime(p)] + [7681,
                                                                     65537]:
            roots = {k * k % p: k for k in range(p // 2 + 1)}
            for a in range(p):
                assert criteria._sqrt(a, p) == roots.get(a), (a, p)

    def test_pinned_search_probes_one_last_coordinate(self, monkeypatch):
        # The 4-component control at p = 41, N = 2: c = N^3 sigma = 8, so
        # each of the C(20 + 3, 3) prefixes of three coordinates is offered
        # at most one last coordinate, and the search forms fewer products
        # than with every last coordinate offered (the search before the
        # pin: 2,022 products).
        control = BraidWord(4, (1, 1, 2, 2, 3, 3) * 41)
        inv = skein.quantum_sln(skein.homfly(control), 2, 4)
        pinned = criteria._last_coordinates
        offered = []

        def spy_pin(*args):
            lasts = pinned(*args)
            return lambda s, lo: offered.append(lasts(s, lo)) or offered[-1]

        def every(target, p, N, m):
            return lambda s, lo: range(lo, p // 2 + 1)

        counts = []
        for pin in (spy_pin, every):
            spy = mock.Mock(wraps=criteria._cyclic_product)
            monkeypatch.setattr(criteria, "_cyclic_product", spy)
            monkeypatch.setattr(criteria, "_last_coordinates", pin)
            hits = criteria.link_candidates(inv, 41, 2, 4)
            assert hits == frozenset(itertools.product((1, 40), repeat=4))
            counts.append(spy.call_count)
        assert len(offered) == math.comb(23, 3)
        assert max(map(len, offered)) == 1
        assert counts[0] < counts[1] == 2_022

    def test_moments_that_cannot_match_build_no_residue(self, monkeypatch):
        # The Hopf link has t0 = 4 = N^2 and t1 = 0 at p = 157, N = 2; a
        # target with t1 != 0 (q times it) or t0 != N^m (three components)
        # is answered before any residue is built.
        spy = mock.Mock(wraps=criteria._cyclic_product)
        monkeypatch.setattr(criteria, "_cyclic_product", spy)
        shifted = HOPF_Q2 * LaurentPoly({1: 1})
        assert criteria.link_candidates(shifted, 157, 2, 2) == frozenset()
        assert criteria.link_candidates(HOPF_Q2, 157, 2, 3) == frozenset()
        assert criteria.knot_candidates(TREFOIL_Q2 * LaurentPoly({1: 1}),
                                        10007, 2) == frozenset()
        assert spy.call_count == 0


class TestPossibleLinking:
    def test_trefoil(self):
        sets = [criteria.knot_candidates(TREFOIL_Q2, 3, 2),
                criteria.knot_candidates(TREFOIL_Q3, 3, 3)]
        assert criteria.possible_linking(sets) == frozenset({1, 2})

    def test_empty_propagates(self):
        sets = [criteria.knot_candidates(TREFOIL_Q2, 5, 2),
                criteria.knot_candidates(TREFOIL_Q3, 5, 3)]
        assert criteria.possible_linking(sets) == frozenset()


class TestLowerBound:
    def test_trefoil(self):
        assert criteria.lower_bound(TREFOIL_Q2, 2) == 19

    def test_unknot_none(self):
        assert criteria.lower_bound(UNKNOT_Q2, 2) is None

    def test_prime_factors_of_the_coefficients(self):
        # 1 + max(largest prime factor of any coefficient, 2 * max |e|),
        # against trial division by every smaller number.
        def largest_prime_factor(c):
            return max(d for d in range(2, c + 1) if c % d == 0
                       and all(d % e for e in range(2, d)))

        def expected(inv):
            primes = [largest_prime_factor(abs(c))
                      for _, c in inv.terms() if abs(c) > 1]
            return 1 + max(primes + [2 * inv.max_abs_exponent()])

        # 12 = 2^2 * 3, 35 = 5 * 7 and 98 = 2 * 7^2 are composite; 53 is
        # a prime above 2 * 3.
        fixed = LaurentPoly({-3: 12, 1: -35, 2: 53})
        assert criteria.lower_bound(fixed, 2) == 54 == expected(fixed)
        assert criteria.lower_bound(LaurentPoly({-3: 12, 1: -35}), 2) == 8
        assert criteria.lower_bound(LaurentPoly({-1: 12, 0: 98}), 2) == 8
        rng = random.Random(167)
        for _ in range(200):
            inv = LaurentPoly({rng.randint(-9, 9): rng.choice([-1, 1]) *
                               rng.randint(1, 400) for _ in range(4)})
            if inv.is_zero():
                continue
            assert criteria.lower_bound(inv, 2) == expected(inv), inv

    def test_bound_is_sharp_for_trefoil(self):
        # Every odd prime >= the bound must yield an empty candidate set.
        n = criteria.lower_bound(TREFOIL_Q2, 2)
        for p in (19, 23, 29):
            assert p >= n
            assert criteria.knot_candidates(TREFOIL_Q2, p, 2) == frozenset()

    def test_consistent_with_exhaustion(self):
        # Below the bound candidates may exist; above they never do.
        rng = random.Random(103)
        words = [BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2, 1)),
                 BraidWord(3, (1, 1, 2, 2, 1))]
        for b in words:
            if len(linking_tuple(b)) != 1:
                continue
            inv = skein.quantum_sln(skein.homfly(b), 2, 1)
            n = criteria.lower_bound(inv, 2)
            if n is None:
                continue
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                if p >= n:
                    assert criteria.knot_candidates(inv, p, 2) == frozenset(), (b, p)


class TestParityAndSign:
    def test_invariant_parity_matches_components(self):
        # Knots on N=2 give odd support; 2-component links even support.
        rng = random.Random(107)
        for _ in range(15):
            letters = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 6)))
            b = BraidWord(2, letters)
            m = len(linking_tuple(b))
            inv = skein.quantum_sln(skein.homfly(b), 2, m)
            assert {e % 2 for e in inv.exponents()} == {1 if m == 1 else 0}
