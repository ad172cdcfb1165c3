"""Acceptance suite: thirteen end-to-end criteria, one test (and one
pass/fail line under pytest -v) per criterion.  Time budgets are asserted
where the criterion carries one."""

import itertools
import json
import random
import time

import pytest

from linkperiod import classical, cli, criteria, skein, statemodel
from linkperiod.diagram import BraidWord, linking_tuple, pd_from_braid, power
from linkperiod.laurent import LaurentPoly, quantum_integer, reduce
from linkperiod.selftest import (FIGURE_EIGHT, TREFOIL, TREFOIL_HOMFLY,
                                 TREFOIL_Q2, TREFOIL_Q3)
from linkperiod.vogel import braid_from_pd
from reference import (braid_segments, enumerate_states, is_proper,
                       parity_split, reduce_2p, reduce_plus,
                       self_crossing_indices, strand_component)

LETTERS = (-2, -1, 1, 2)


def sweep_words():
    """Every braid word of length <= 6 with letters in {+-1, +-2}, read on
    the fewest strands that support it (min 2)."""
    for length in range(7):
        for letters in itertools.product(LETTERS, repeat=length):
            n = max(2, 1 + max((abs(e) for e in letters), default=0))
            yield BraidWord(n, letters)


@pytest.fixture(scope="module")
def sweep():
    """Criterion-2 sweep, shared with criteria 9 and 10: for every word,
    the HOMFLY polynomial (the Hecke-trace route, checked against the
    skein route on the word's diagram and against the Hecke route on the
    braid read back from that diagram), component count, and both routes
    to the quantum invariant at N in {2,3}."""
    t0 = time.monotonic()
    rows = []
    for b in sweep_words():
        P = skein.homfly(b)
        d = pd_from_braid(b)
        assert skein._homfly_diagram(d) == P, b.text()
        assert skein.homfly(braid_from_pd(d), d) == P, b.text()
        m = len(linking_tuple(b))
        invs = {}
        for N in (2, 3):
            via_skein = skein.quantum_sln(P, N, m)
            via_states = statemodel.invariant_statesums(b, (N,))[N]
            invs[N] = (via_skein, via_states)
        rows.append((b, P, m, invs))
    return rows, time.monotonic() - t0


def test_criterion_01_unknot_identity():
    t0 = time.monotonic()
    unknot = BraidWord(1)
    P = skein.homfly(unknot)
    for N in range(2, 6):
        assert skein.quantum_sln(P, N) == quantum_integer(N)
        assert statemodel.invariant_statesums(unknot, (N,))[N] == \
            quantum_integer(N)
    assert time.monotonic() - t0 < 1


def test_criterion_02_oracle_equivalence(sweep):
    rows, elapsed = sweep
    assert len(rows) == sum(4 ** k for k in range(7))
    for b, _, _, invs in rows:
        for N in (2, 3):
            via_skein, via_states = invs[N]
            assert via_skein == via_states, b.text()
    assert elapsed < 60


def test_criterion_03_trefoil_fixtures():
    t0 = time.monotonic()
    P = skein.homfly(TREFOIL)
    assert P == TREFOIL_HOMFLY
    assert skein.quantum_sln(P, 2) == TREFOIL_Q2
    assert skein.quantum_sln(P, 3) == TREFOIL_Q3
    assert time.monotonic() - t0 < 1


def test_criterion_04_periodic_congruence_controls():
    t0 = time.monotonic()
    rng = random.Random(20240915)
    for _ in range(20):
        n = rng.randint(2, 3)
        letters = tuple(rng.choice([e for e in LETTERS if abs(e) < n])
                        for _ in range(rng.randint(1, 3)))
        w = BraidWord(n, letters)
        for p in (3, 5):
            wp = power(w, p)
            lams = linking_tuple(wp)
            P = skein.homfly(wp)
            for N in (2, 3):
                inv = skein.quantum_sln(P, N, len(lams))
                assert reduce(inv, p) == \
                    reduce(criteria.rhs_sum(N, lams), p), (w.text(), p, N)
    assert time.monotonic() - t0 < 120


def test_criterion_05_plus_ideal_sign():
    t0 = time.monotonic()
    target = -LaurentPoly({2: 1, -2: 1})
    assert reduce_plus(TREFOIL_Q2, 3) == reduce_plus(target, 3)
    # lambda = 2 is even, so the predicted sign at even N is minus.
    plus = criteria.knot_candidates(TREFOIL_Q2, 3, 2, plus=True)
    assert (2, "-") in plus
    assert time.monotonic() - t0 < 1


def test_criterion_06_candidate_exclusion():
    t0 = time.monotonic()
    assert criteria.knot_candidates(TREFOIL_Q2, 5, 2) == frozenset()
    assert criteria.knot_candidates(TREFOIL_Q2, 3, 2) == frozenset({1, 2})
    linking = criteria.possible_linking([
        criteria.knot_candidates(TREFOIL_Q2, 3, 2),
        criteria.knot_candidates(TREFOIL_Q3, 3, 3),
    ])
    assert linking == frozenset({1, 2})
    assert time.monotonic() - t0 < 1


def test_criterion_07_lower_bound():
    t0 = time.monotonic()
    assert criteria.lower_bound(TREFOIL_Q2, 2) == 19
    unknot_q2 = skein.quantum_sln(skein.homfly(BraidWord(1)), 2)
    assert criteria.lower_bound(unknot_q2, 2) is None
    fig8_q2 = skein.quantum_sln(skein.homfly(FIGURE_EIGHT), 2)
    assert fig8_q2 == LaurentPoly({5: 1, -5: 1})
    assert criteria.lower_bound(fig8_q2, 2) is None
    assert time.monotonic() - t0 < 1


def test_criterion_08_classical_criteria():
    t0 = time.monotonic()
    V = skein.jones(TREFOIL_HOMFLY)
    assert classical.traczyk_jones_check(V, 3)
    # Both sides reduce to 1 mod (3, t^3 - 1).
    assert reduce(V, 3) == reduce(LaurentPoly({0: 1}), 3)
    delta3 = skein.alexander(TREFOIL_HOMFLY)
    assert classical.murasugi_candidates(delta3, 3) == frozenset({2})
    delta8 = skein.alexander(skein.homfly(FIGURE_EIGHT))
    assert classical.murasugi_candidates(delta8, 3) == frozenset()
    assert classical.murasugi_candidates(delta8, 5) == frozenset()
    p0 = classical.traczyk_p0_candidates(skein.p0_part(TREFOIL_HOMFLY), 3)
    quantum = criteria.knot_candidates(TREFOIL_Q2, 3, 2)
    assert p0 & quantum == frozenset({1, 2})
    assert time.monotonic() - t0 < 5


def test_criterion_09_jones_sl2_bridge(sweep):
    rows, _ = sweep
    bracket2 = LaurentPoly({1: 1, -1: 1})
    knots = 0
    for b, P, m, invs in rows:
        if m != 1:
            continue
        knots += 1
        V = skein.jones(P)
        assert V.var == "t"
        vq = LaurentPoly({-2 * e: c for e, c in V.terms()})
        assert bracket2 * vq == invs[2][0], b.text()
    assert knots > 0


def _component_label_images(b, N):
    """Images of proper states under 'label of each closure component'."""
    arc_of, _ = braid_segments(b)
    comp_of = strand_component(b)
    m = len(linking_tuple(b))
    images = []
    flat_self_ok = True
    selfx = set(self_crossing_indices(b))
    for s in enumerate_states(b, N):
        if not is_proper(s):
            continue
        comp_label = {}
        coherent = True
        for slot in range(1, b.n + 1):
            arc = arc_of[(0, slot)] if b.letters else slot - 1
            c = comp_of[slot]
            lab = s.labels[arc]
            if comp_label.setdefault(c, lab) != lab:
                coherent = False
        assert coherent
        for i in selfx:
            if s.rules[i] not in (2, 5):
                flat_self_ok = False
        images.append(tuple(comp_label[c] for c in range(m)))
    return images, flat_self_ok


def test_criterion_10_structural_properties(sweep):
    rows, _ = sweep
    for b, P, m, invs in rows:
        # HOMFLY parity: r + s is even in every monomial and the r-parity
        # is uniform, matching the component count.
        r_parities = set()
        for (r, s), _c in P.terms():
            assert (r + s) % 2 == 0
            r_parities.add(r % 2)
        assert len(r_parities) <= 1
        if r_parities:
            assert r_parities == {(m - 1) % 2}
        for N in (2, 3):
            inv = invs[N][0]
            # q = 1 evaluation counts proper states: N^m.
            assert sum(c for _, c in inv.terms()) == N ** m
            # Exponent-parity table: odd support only for even N with
            # even r (knots); even support otherwise.
            want = 1 if (N % 2 == 0 and (m - 1) % 2 == 0) else 0
            assert {e % 2 for e in inv.exponents()} <= {want}, (b.text(), N)
    # Proper-state bijection and flat self-crossing exclusion on a
    # deterministic subsample (full state enumeration per diagram).
    rng = random.Random(20240916)
    sample = rng.sample(rows, 200)
    for b, _, m, _ in sample:
        for N in (2, 3):
            images, flat_ok = _component_label_images(b, N)
            assert flat_ok, b.text()
            assert len(images) == N ** m
            assert len(set(images)) == N ** m  # injective onto I_N^m


def test_criterion_11_ideal_algebra_randomized():
    t0 = time.monotonic()
    rng = random.Random(20240917)
    Q = LaurentPoly.monomial

    def rand_poly(parity=None):
        c = {}
        for _ in range(rng.randint(0, 6)):
            e = rng.randint(-10, 10)
            if parity is not None:
                e = 2 * e + (1 if parity == "odd" else 0)
            c[e] = rng.randint(-9, 9)
        return LaurentPoly(c)

    for _ in range(500):
        p = rng.choice((3, 5, 7))
        # Exponent folding: i = j mod p reduces identically.
        i = rng.randint(-60, 60)
        j = i + p * rng.randint(-8, 8)
        assert reduce(Q(i), p) == reduce(Q(j), p)
        # Parity-homogeneous members of (p, q^p - 1) lie in the other
        # two ideals as well.
        par = rng.choice(("even", "odd"))
        f = (Q(p) - Q(0)) * rand_poly(par) + rand_poly(par).scale(p)
        for part in parity_split(f):
            if not reduce(part, p):
                assert not reduce_plus(part, p)
                assert not reduce_2p(part, p)
        # Joint membership in both degree-p ideals gives the 2p ideal.
        g = rand_poly()
        if not reduce(g, p) and not reduce_plus(g, p):
            assert not reduce_2p(g, p)
    assert time.monotonic() - t0 < 10


def test_criterion_12_markov_invariance():
    t0 = time.monotonic()
    rng = random.Random(20240918)
    routes = (skein.homfly,
              lambda b: skein.homfly(braid_from_pd(pd_from_braid(b))),
              lambda b: skein._homfly_diagram(pd_from_braid(b)))
    for _ in range(50):
        n = rng.randint(2, 3)
        letters = tuple(rng.choice([e for e in LETTERS if abs(e) < n])
                        for _ in range(rng.randint(1, 6)))
        b = BraidWord(n, letters)
        k = rng.randrange(len(letters))
        for homfly in routes:
            P = homfly(b)
            # Cyclic rotation (Markov conjugation by the first letter).
            rotated = BraidWord(n, letters[k:] + letters[:k])
            assert homfly(rotated) == P, b.text()
            # Stabilization by sigma_n^+-1 on n+1 strands.
            for s in (1, -1):
                stab = BraidWord(n + 1, letters + (s * n,))
                assert homfly(stab) == P, (b.text(), s)
    assert time.monotonic() - t0 < 30


def test_criterion_13_cli_batch_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    csv_path = tmp_path / "batch.csv"
    csv_path.write_text(
        "name,input_type,input\n"
        "unknot,braid,n=1;\n"
        "trefoil,braid,1 1 1\n"
        "figure-eight,braid,n=3; 1 -2 1 -2\n"
        "hopf,braid,1 1\n"
        'trefoil-pd,pd,"X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"\n')
    outputs = []
    for _ in range(2):
        code = cli.main(["batch", str(csv_path), "-p", "3"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    reports = json.loads(outputs[0])
    assert [r["name"] for r in reports] == [
        "unknot", "trefoil", "figure-eight", "hopf", "trefoil-pd"]
    assert all("error" not in r for r in reports)
    assert time.monotonic() - t0 < 10
