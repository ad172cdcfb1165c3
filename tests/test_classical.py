import random

import pytest

from linkperiod import classical, skein
from linkperiod.diagram import BraidWord, linking_tuple, power
from linkperiod.laurent import LaurentPoly
from linkperiod.selftest import FIG8_HOMFLY
from reference import (gf_mul, gf_pow, murasugi_by_powers, p0_by_residues,
                       reduce_2p)
from test_skein import random_word

TREFOIL_JONES = LaurentPoly({2: 1, 6: 1, 8: -1})      # in s = sqrt(t)
TREFOIL_DELTA = LaurentPoly({2: 1, 1: -1, 0: 1})
FIG8_DELTA = LaurentPoly({2: 1, 1: -3, 0: 1})


class TestJonesSymmetry:
    def test_trefoil_passes_p3(self):
        # The right trefoil is 3-periodic, so it must pass at p=3.
        assert classical.traczyk_jones_check(TREFOIL_JONES, 3)

    def test_trefoil_fails_p5(self):
        assert not classical.traczyk_jones_check(TREFOIL_JONES, 5)

    def test_amphichiral_passes_everywhere(self):
        # Figure-eight Jones is palindromic, V(t) = V(1/t) exactly.
        V = skein.jones(FIG8_HOMFLY)
        for p in (3, 5, 7, 11):
            assert classical.traczyk_jones_check(V, p)

    def test_s_variable_link(self):
        V = skein.jones(skein.homfly(BraidWord(2, (1, 1))))
        # The check runs mod (p, s^2p - 1) without raising.
        classical.traczyk_jones_check(V, 3)

    def test_link_passes_at_p2(self):
        # The Hopf link, closure of sigma_1^2, is 2-periodic.
        V = skein.jones(skein.homfly(power(BraidWord(2, (1,)), 2)))
        assert classical.traczyk_jones_check(V, 2)

    def test_periodic_controls(self):
        # Closure of w^p always passes at p.
        for letters, p in (((1,), 3), ((1,), 5), ((1,), 7)):
            w = BraidWord(2, letters)
            V = skein.jones(skein.homfly(power(w, p)))
            assert classical.traczyk_jones_check(V, p)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            classical.traczyk_jones_check(TREFOIL_JONES, 6)

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_link_s_form_needs_only_period_p(self, p):
        # A link's V in s = sqrt(t) is tested mod (p, s^2p - 1); the check
        # folds mod p only, which must give the same verdict on the
        # s-forms `skein.jones` returns (all exponents odd, V(1) even).
        rng = random.Random(100 + p)
        verdicts = []
        while len(verdicts) < 12:
            n = rng.randint(2, 4)
            gens = [e for e in range(1 - n, n) if e]
            b = BraidWord(n, tuple(rng.choice(gens)
                                   for _ in range(rng.randint(1, 10))))
            V = skein.jones(skein.homfly(b))
            if all(e % 2 == 0 for e in V.exponents()):
                continue
            verdict = not reduce_2p(V - V.compose_power(-1), p)
            assert classical.traczyk_jones_check(V, p) == verdict, b.text()
            verdicts.append(verdict)
        # Some of these links fail at p = 5 and 7; all pass at 2 and 3.
        assert (False in verdicts) == (p > 3)

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
    def test_t_form_gets_the_s_verdict(self, p):
        # For a knot or an odd number of components every exponent of V in
        # s = sqrt(t) is even, and the check on V must give the verdict of
        # the t-test mod (p, t^p - 1) on V in t, its exponents halved.
        rng = random.Random(200 + p)
        verdicts, components = [], set()
        while len(verdicts) < 24:
            b = random_word(rng, 5, 10)
            m = len(linking_tuple(b))
            if m % 2 == 0:
                continue
            V = skein.jones(skein.homfly(b))
            t_form = LaurentPoly({e // 2: c for e, c in V.terms()})
            verdict = classical.traczyk_jones_check(V, p)
            assert classical.traczyk_jones_check(t_form, p) == verdict, \
                b.text()
            verdicts.append(verdict)
            components.add(m)
        assert {1, 3} <= components
        # Some of these fail from p = 5 on; all pass at 2 and 3.
        assert (False in verdicts) == (p > 3)


class TestP0Jumps:
    def test_trefoil_p3(self):
        c = classical.traczyk_p0_candidates(LaurentPoly({2: 2, 4: -1}), 3)
        assert c == frozenset({1, 2})

    def test_figure_eight_all_survive(self):
        p0 = skein.p0_part(FIG8_HOMFLY)
        # Jumps at exponents +-1 allow lambda = +-1 only (mod 3: {1, 2}).
        c = classical.traczyk_p0_candidates(p0, 3)
        assert c <= frozenset(range(3))

    def test_unknot_everything_survives(self):
        c = classical.traczyk_p0_candidates(LaurentPoly({0: 1}), 5)
        # Jumps at +-1 mod 5 restrict to lambda = +-1.
        assert c == frozenset({1, 4})

    def test_zero_polynomial(self):
        c = classical.traczyk_p0_candidates(LaurentPoly.zero(), 3)
        assert c == frozenset({0, 1, 2})

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_matches_scan_over_residues(self, p):
        def block(lo, hi):
            """Coefficient 1 at lo, lo + 2, ..., hi: jumps at lo - 1 and
            hi + 1 only."""
            return LaurentPoly({e: 1 for e in range(lo, hi + 1, 2)})

        parts = {
            "no jump": LaurentPoly({0: p, 2: 2 * p}),
            "single jump at 0": block(p + 1, 3 * p - 1),
            "single jump at 1": block(2, 2 * p),
            "jump pair {3, -3}": block(4, 4 * p - 4),
            "jumps at 1 and 7": block(2, 6),
        }
        assert classical.traczyk_p0_candidates(parts["no jump"], p) == \
            frozenset(range(p))
        assert classical.traczyk_p0_candidates(
            parts["single jump at 0"], p) == frozenset({0})
        rng = random.Random(p)
        for i in range(40):
            lo = rng.randrange(-6, 1)
            parts[i] = LaurentPoly({2 * (lo + k): rng.randrange(-3, 4)
                                    for k in range(rng.randrange(1, 6))})
        for name, P0 in parts.items():
            assert classical.traczyk_p0_candidates(P0, p) == \
                p0_by_residues(P0, p), name

    def test_odd_exponent_rejected(self):
        with pytest.raises(ValueError):
            classical.traczyk_p0_candidates(LaurentPoly({1: 1}), 3)
        with pytest.raises(ValueError):
            classical.traczyk_p0_candidates(LaurentPoly({0: 1}), 2)


class TestMurasugi:
    def test_trefoil_p3(self):
        assert classical.murasugi_candidates(TREFOIL_DELTA, 3) == frozenset({2})

    def test_figure_eight_excluded(self):
        assert classical.murasugi_candidates(FIG8_DELTA, 3) == frozenset()
        assert classical.murasugi_candidates(FIG8_DELTA, 5) == frozenset()

    def test_trivial_polynomial(self):
        # Delta = 1 factors as f^q * Phi_1^(q-1) with f = 1.
        one = LaurentPoly({0: 1})
        assert 1 in classical.murasugi_candidates(one, 3)

    def test_vanishing_mod_p_inconclusive(self):
        # No knot's Delta vanishes mod p, so such a Delta is refused.
        for delta in (LaurentPoly({0: 3, 1: 3}), LaurentPoly.zero()):
            with pytest.raises(ValueError, match="^Delta vanishes mod 3"):
                classical.murasugi_candidates(delta, 3)

    def test_knots_never_vanish_mod_p(self):
        # A knot has Delta(1) = nabla(0) = +-1, so the check command's
        # Alexander criterion, which runs on knots only, never meets the
        # refusal of a Delta that vanishes mod p.
        rng = random.Random(3)
        knots = 0
        while knots < 300:
            n = rng.randint(1, 5)
            letters = tuple(rng.choice([-1, 1]) * rng.randint(1, n - 1)
                            for _ in range(rng.randint(0, 14) if n > 1 else 0))
            b = BraidWord(n, letters)
            if len(linking_tuple(b)) != 1:
                continue
            knots += 1
            delta = skein.alexander(skein.homfly(b))
            assert delta.evaluate_one() in (1, -1), b
            for p in (2, 3, 5, 7, 11, 13):
                assert isinstance(classical.murasugi_candidates(delta, p),
                                  frozenset)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("size", [1, 2])
    def test_matches_power_reference(self, p, size):
        # Random Deltas, and Deltas built as f(t^p) * Phi_lambda^(p-1) mod p
        # (f(t^p) = f^p over the field) times a unit and a power of t, plus
        # p times random noise, so that most of them have candidates.  Size
        # 2 doubles the degrees and the largest lambda, so that the windows
        # of Delta * Phi_lambda are longer.
        rng = random.Random(1000 * p + size)
        cases = 0
        for _ in range(60):
            if rng.random() < 0.3:
                coeffs = dict(enumerate(rng.randint(-9, 9) for _ in
                                        range(rng.randint(1, 12 * size))))
            else:
                f = [rng.randrange(p)
                     for _ in range(rng.randint(0, 3 * size))] + [1]
                f_p = [0] * (p * (len(f) - 1) + 1)
                f_p[::p] = f
                lam = rng.choice([k for k in range(1, 4 * size + 1) if k % p])
                dense = gf_mul(f_p, gf_pow([1] * lam, p - 1, p), p)
                unit, offset = rng.choice([1, -1]), rng.randint(-3, 3)
                coeffs = {e + offset: unit * c + p * rng.randint(-2, 2)
                          for e, c in enumerate(dense)}
            delta = LaurentPoly(coeffs)
            expected = murasugi_by_powers(delta, p)
            if expected is None:
                # Delta vanishes mod p.
                with pytest.raises(ValueError):
                    classical.murasugi_candidates(delta, p)
                continue
            got = classical.murasugi_candidates(delta, p)
            assert got == expected, (coeffs, p)
            cases += bool(got)
        assert cases >= 20

    def test_validation(self):
        with pytest.raises(ValueError):
            classical.murasugi_candidates(TREFOIL_DELTA, 4)

