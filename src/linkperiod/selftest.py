"""Built-in fixture suite behind `linkperiod selftest`.

Every expected value here was derived by hand (skein computation or
brute-force state enumeration) before being frozen.
"""

from __future__ import annotations

import random

from . import classical, criteria, skein, statemodel
from .diagram import BraidWord, linking_tuple, power
from .laurent import BiLaurent, LaurentPoly, reduce

TREFOIL = BraidWord(2, (1, 1, 1))
HOPF = BraidWord(2, (1, 1))
FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))

TREFOIL_HOMFLY = BiLaurent({(2, 0): 2, (4, 0): -1, (2, 2): 1})
HOPF_HOMFLY = BiLaurent({(1, 1): 1, (1, -1): 1, (3, -1): -1})
FIG8_HOMFLY = BiLaurent({(-2, 0): 1, (0, 0): -1, (2, 0): 1, (0, 2): -1})

TREFOIL_Q2 = LaurentPoly({-1: 1, -3: 1, -5: 1, -9: -1})
TREFOIL_Q3 = LaurentPoly({-2: 1, -4: 1, -6: 2, -8: 1, -12: -1, -14: -1})
HOPF_Q2 = LaurentPoly({0: 1, -2: 1, -4: 1, -6: 1})


def _checks():
    yield "homfly.trefoil", lambda: skein.homfly(TREFOIL) == TREFOIL_HOMFLY
    yield "homfly.hopf", lambda: skein.homfly(HOPF) == HOPF_HOMFLY
    yield "homfly.figure-eight", lambda: skein.homfly(FIGURE_EIGHT) == FIG8_HOMFLY
    yield "homfly.unknot", lambda: skein.homfly(BraidWord(1)) == BiLaurent.one()

    yield "quantum.trefoil-n2", lambda: \
        skein.quantum_sln(skein.homfly(TREFOIL), 2) == TREFOIL_Q2
    yield "quantum.trefoil-n3", lambda: \
        skein.quantum_sln(skein.homfly(TREFOIL), 3) == TREFOIL_Q3
    yield "quantum.hopf-n2", lambda: \
        skein.quantum_sln(skein.homfly(HOPF), 2, m=2) == HOPF_Q2

    yield "jones.trefoil", lambda: \
        skein.jones(TREFOIL_HOMFLY) == LaurentPoly({4: -1, 3: 1, 1: 1}, "t")
    yield "alexander.figure-eight", lambda: \
        skein.alexander(FIG8_HOMFLY) == LaurentPoly({2: 1, 1: -3, 0: 1}, "t")

    def oracle():
        rng = random.Random(20240901)
        for _ in range(20):
            n = rng.choice((2, 3))
            length = rng.randint(0, 5)
            letters = tuple(rng.choice([e for e in (-2, -1, 1, 2) if abs(e) < n])
                            for _ in range(length))
            b = BraidWord(n, letters)
            P = skein.homfly(b)
            m = len(linking_tuple(b))
            states = statemodel.invariant_statesums(b, (2, 3))
            if any(skein.quantum_sln(P, N, m) != states[N] for N in (2, 3)):
                return False
        return True
    yield "oracle.skein-vs-statesum", oracle

    def periodic_controls():
        for w, p in ((BraidWord(2, (1,)), 3), (BraidWord(2, (1,)), 5),
                     (BraidWord(3, (1, -2)), 3)):
            wp = power(w, p)
            lams = linking_tuple(wp)
            P = skein.homfly(wp)
            for N in (2, 3):
                inv = skein.quantum_sln(P, N, len(lams))
                if reduce(inv, p) != reduce(criteria.rhs_sum(N, lams), p):
                    return False
        return True
    yield "congruence.periodic-controls", periodic_controls

    yield "candidates.trefoil-p3", lambda: \
        criteria.knot_candidates(TREFOIL_Q2, 3, 2) == frozenset({1, 2})
    yield "candidates.trefoil-p3-plus", lambda: \
        criteria.knot_candidates(TREFOIL_Q2, 3, 2, plus=True) == \
        frozenset({(1, "+"), (2, "-"), (4, "-"), (5, "+")})
    yield "candidates.trefoil-p5-empty", lambda: \
        criteria.knot_candidates(TREFOIL_Q2, 5, 2) == frozenset()
    yield "candidates.possible-linking", lambda: \
        criteria.possible_linking([
            criteria.knot_candidates(TREFOIL_Q2, 3, 2),
            criteria.knot_candidates(TREFOIL_Q3, 3, 3),
        ]) == frozenset({1, 2})
    yield "candidates.lower-bound", lambda: \
        criteria.lower_bound(TREFOIL_Q2, 2) == 19

    yield "classical.jones-p3", lambda: \
        classical.traczyk_jones_check(skein.jones(TREFOIL_HOMFLY), 3)
    yield "classical.jones-p5", lambda: \
        not classical.traczyk_jones_check(skein.jones(TREFOIL_HOMFLY), 5)
    yield "classical.murasugi-trefoil", lambda: \
        classical.murasugi_candidates(
            LaurentPoly({2: 1, 1: -1, 0: 1}, "t"), 3) == frozenset({2})
    yield "classical.murasugi-figure-eight", lambda: \
        classical.murasugi_candidates(
            LaurentPoly({2: 1, 1: -3, 0: 1}, "t"), 5) == frozenset()
    yield "classical.p0-trefoil", lambda: \
        classical.traczyk_p0_candidates(
            LaurentPoly({2: 2, 4: -1}, "a"), 3) == frozenset({1, 2})

    def statesum_fixture():
        return (statemodel.brackets(BraidWord(2, (1,)), (2,))[2] ==
                LaurentPoly({3: 1, 1: 1}) and
                statemodel.brackets(HOPF, (2,))[2] ==
                LaurentPoly({4: 1, 2: 1, 0: 1, -2: 1}))
    yield "statesum.brackets", statesum_fixture

    def proper_count():
        # At q = 1 every state with a splice of weight +-(q - q^-1) weighs
        # nothing, so the state sum counts the proper states: N^m of them.
        for b in (TREFOIL, HOPF, FIGURE_EIGHT):
            m = len(linking_tuple(b))
            states = statemodel.invariant_statesums(b, (2, 3))
            if any(states[N].evaluate_one() != N ** m for N in (2, 3)):
                return False
        return True
    yield "statesum.proper-count", proper_count


def run(name_filter: str = ""):
    results = []
    for name, fn in _checks():
        if name_filter and name_filter not in name:
            continue
        try:
            ok = bool(fn())
            detail = ""
        except Exception as exc:
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
