import itertools
import random
import re
import time

import pytest

from linkperiod import skein, statemodel
from linkperiod.diagram import BraidWord, linking_tuple, power, writhe
from linkperiod.laurent import LaurentPoly, quantum_integer, unpack
from linkperiod.selftest import FIGURE_EIGHT, HOPF, TREFOIL
from reference import (braid_segments, enumerate_states, is_proper,
                       self_crossing_indices, slot_bracket, strand_component)


def random_word(rng, n_max=3, len_max=6):
    n = rng.randint(2, n_max)
    letters = tuple(rng.choice([e for e in (-2, -1, 1, 2) if abs(e) < n])
                    for _ in range(rng.randint(0, len_max)))
    return BraidWord(n, letters)


class TestLabels:
    def test_range(self):
        assert statemodel.labels_range(2) == [-1, 1]
        assert statemodel.labels_range(3) == [-2, 0, 2]
        assert statemodel.labels_range(4) == [-3, -1, 1, 3]

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            statemodel.labels_range(1)


class TestEnumeration:
    def test_single_crossing_count(self):
        # One positive crossing on 2 strands: the closure feeds the
        # outputs back into the inputs, so a=c and b=d are forced and
        # only the splice rules survive: one ordered unequal pair plus
        # the two all-equal labelings.
        states = enumerate_states(BraidWord(2, (1,)), 2)
        rules = sorted(s.rules[0] for s in states)
        assert rules == [1, 2, 2]

    def test_deterministic_order(self):
        a = enumerate_states(TREFOIL, 3)
        b = enumerate_states(TREFOIL, 3)
        assert a == b

    def test_rule_consistency(self):
        rng = random.Random(61)
        for _ in range(15):
            b = random_word(rng)
            for s in enumerate_states(b, 2):
                assert len(s.rules) == len(b.letters)
                for r, e in zip(s.rules, b.letters):
                    if e > 0:
                        assert r in (1, 2, 3)
                    else:
                        assert r in (4, 5, 6)

    def test_resource_guard(self):
        with pytest.raises(statemodel.StateResourceError):
            enumerate_states(BraidWord(3, (1, 2) * 3), 3, max_states=5)


Q = LaurentPoly({1: 1})
QMINUS = LaurentPoly({1: 1, -1: -1})   # q - q^-1

#: Vertex weight of each local rule (see the statemodel docstring).
RULE_WEIGHT = {1: QMINUS, 2: Q, 3: LaurentPoly.one(),
               4: -QMINUS, 5: LaurentPoly({-1: 1}), 6: LaurentPoly.one()}


def state_weight(state):
    w = LaurentPoly.one()
    for r in state.rules:
        w = w * RULE_WEIGHT[r]
    return w


def spliced_loops(state):
    """The loops of a state as (arc set, label set) pairs, traced over the
    arcs of the closure: a splice joins each input arc to the output arc
    on its own side, a flat crossing to the one on the other side."""
    b = state.braid
    k = len(b.letters)
    parent = list(range(len(state.labels)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    if k:
        arc_of, slots = braid_segments(b)
        for i, (j, r) in enumerate(zip(slots, state.rules)):
            c, d = arc_of[(i, j)], arc_of[(i, j + 1)]
            a, bb = arc_of[((i + 1) % k, j)], arc_of[((i + 1) % k, j + 1)]
            for x, y in ((c, bb), (d, a)) if r in (3, 6) else ((c, a), (d, bb)):
                parent[find(x)] = find(y)
    groups = {}
    for arc, label in enumerate(state.labels):
        arcs, labels = groups.setdefault(find(arc), (set(), set()))
        arcs.add(arc)
        labels.add(label)
    return list(groups.values())


def brute_bracket(b, N):
    """Sum over enumerate_states of the vertex weights times q^norm, the
    norm read from the loop trace rather than from a slot permutation."""
    total = LaurentPoly.zero()
    for s in enumerate_states(b, N):
        norm = sum(next(iter(labels)) for _, labels in spliced_loops(s))
        total = total + state_weight(s).shift(norm)
    return total


class TestWeightsAndLoops:
    def test_weights(self):
        b = BraidWord(2, (1,))
        by_rule = {}
        for s in enumerate_states(b, 2):
            by_rule.setdefault(s.rules[0], s)
        assert state_weight(by_rule[1]) == QMINUS
        assert state_weight(by_rule[2]) == LaurentPoly({1: 1})
        # Flat rules appear on the two-crossing closure, where loop
        # consistency forces both crossings to carry the same rule.
        weights = {s.rules: state_weight(s)
                   for s in enumerate_states(HOPF, 2)}
        assert set(weights) == {(1, 1), (2, 2), (3, 3)}
        assert weights[(3, 3)] == LaurentPoly({0: 1})
        assert weights[(1, 1)] == QMINUS * QMINUS
        assert weights[(2, 2)] == LaurentPoly({2: 1})
        neg = {s.rules: state_weight(s)
               for s in enumerate_states(BraidWord(2, (-1, -1)), 2)}
        assert set(neg) == {(4, 4), (5, 5), (6, 6)}
        assert neg[(6, 6)] == LaurentPoly({0: 1})
        assert neg[(4, 4)] == QMINUS * QMINUS
        assert neg[(5, 5)] == LaurentPoly({-2: 1})

    def test_loop_labels_coherent(self):
        # Every loop of a valid state carries one label.
        rng = random.Random(67)
        for _ in range(10):
            b = random_word(rng, len_max=5)
            for s in enumerate_states(b, 2):
                assert all(len(labels) == 1 for _, labels in spliced_loops(s))

    def test_norm_matches_slot_cycles(self):
        # The rank pass, which gives a closed state the sum of its
        # starting labels as its norm, equals the brute-force sum over
        # whole states, which reads the norm off the loop trace.
        rng = random.Random(71)
        for N, len_max in ((2, 5), (3, 5), (4, 4)):
            for _ in range(10):
                b = random_word(rng, len_max=len_max)
                assert statemodel.brackets(b, (N,))[N] == brute_bracket(b, N), \
                    (b.text(), N)


class TestBracket:
    def test_single_positive(self):
        assert statemodel.brackets(BraidWord(2, (1,)), (2,))[2] == \
            LaurentPoly({3: 1, 1: 1})

    def test_hopf(self):
        assert statemodel.brackets(HOPF, (2,))[2] == \
            LaurentPoly({4: 1, 2: 1, 0: 1, -2: 1})

    def test_empty_braid(self):
        # n-strand identity braid: bracket = (sum_I q^I)^n.
        two = statemodel.brackets(BraidWord(2), (2,))[2]
        assert two == LaurentPoly({2: 1, 0: 2, -2: 1})

    def test_mirror_inverts_q(self):
        rng = random.Random(73)
        for _ in range(10):
            b = random_word(rng, len_max=5)
            mirror = BraidWord(b.n, tuple(-e for e in b.letters))
            inv = statemodel.invariant_statesums(b, (2,))[2]
            minv = statemodel.invariant_statesums(mirror, (2,))[2]
            assert minv == inv.compose_power(-1)


class TestOracle:
    def test_agrees_with_skein(self):
        rng = random.Random(79)
        for _ in range(25):
            b = random_word(rng)
            m = len(linking_tuple(b))
            P = skein.homfly(b)
            for N in (2, 3):
                assert statemodel.invariant_statesums(b, (N,))[N] == \
                    skein.quantum_sln(P, N, m)

    def test_markov_stabilization(self):
        # sigma_n^+-1 stabilization leaves the invariant unchanged.
        rng = random.Random(83)
        for _ in range(10):
            b = random_word(rng, n_max=2, len_max=4)
            for s in (1, -1):
                stab = BraidWord(b.n + 1, b.letters + (s * b.n,))
                assert statemodel.invariant_statesums(stab, (2,))[2] == \
                    statemodel.invariant_statesums(b, (2,))[2]


def random_long_word(seed, n=3, length=40):
    rng = random.Random(seed)
    letters = [s * k for k in range(1, n) for s in (1, -1)]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))


class TestLongBraids:
    """Words of 40 letters, far beyond the reference enumerator."""

    # The closed weights of the alternating word reach 42,365,020 in one
    # coefficient before the per-N factors cancel them.
    WORDS = (power(BraidWord(3, (1, 2)), 20), random_long_word(101),
             power(BraidWord(3, (1, -2)), 20))
    IDS = ("T(3,20)", "random", "alternating")

    @pytest.mark.parametrize("b", WORDS, ids=IDS)
    def test_conjugation(self, b):
        inv = statemodel.invariant_statesums(b, (3,))[3]
        for r in (1, 7, 23):
            rotated = BraidWord(b.n, b.letters[r:] + b.letters[:r])
            assert statemodel.invariant_statesums(rotated, (3,))[3] == inv

    @pytest.mark.parametrize("b", WORDS, ids=IDS)
    def test_stabilization(self, b):
        inv = statemodel.invariant_statesums(b, (3,))[3]
        for s in (1, -1):
            stab = BraidWord(b.n + 1, b.letters + (s * b.n,))
            assert statemodel.invariant_statesums(stab, (3,))[3] == inv

    @pytest.mark.parametrize("b", WORDS, ids=IDS)
    def test_mirror_inverts_q(self, b):
        mirror = BraidWord(b.n, tuple(-e for e in b.letters))
        assert statemodel.invariant_statesums(mirror, (3,))[3] == \
            statemodel.invariant_statesums(b, (3,))[3].compose_power(-1)

    def test_resource_guard(self, monkeypatch):
        # On three strands at N = 3 the pass starts from 13 rank patterns
        # and T(3,20) fills the whole bound of 55 entries (1 + 2 * 9 + 36
        # rearrangements of the patterns with 1, 2 and 3 blocks).
        b = self.WORDS[0]
        expected = statemodel.brackets(b, (3,))[3]
        monkeypatch.setattr(statemodel, "MAX_STATES", 54)
        with pytest.raises(statemodel.StateResourceError, match="N=3"):
            statemodel.brackets(b, (3,))[3]
        monkeypatch.setattr(statemodel, "MAX_STATES", 55)
        assert statemodel.brackets(b, (3,))[3] == expected
        # The starting table is refused before it is built.
        monkeypatch.setattr(statemodel, "MAX_STATES", 12)

        def no_patterns(n, blocks):
            raise AssertionError("starting table built past the guard")
        monkeypatch.setattr(statemodel, "_rank_patterns", no_patterns)
        with pytest.raises(statemodel.StateResourceError):
            statemodel.brackets(b, (3,))[3]
        monkeypatch.undo()
        t0 = time.monotonic()
        with pytest.raises(statemodel.StateResourceError):
            statemodel.brackets(BraidWord(60, (1,)), (2,))[2]
        assert time.monotonic() - t0 < 1

    def test_resource_guard_names_largest_n(self, monkeypatch):
        # Three strands: 7 patterns with at most two blocks, 13 with three.
        monkeypatch.setattr(statemodel, "MAX_STATES", 10)
        assert statemodel.brackets(BraidWord(3), [2])[2] == \
            quantum_integer(2) ** 3
        with pytest.raises(statemodel.StateResourceError, match="N=4"):
            statemodel.brackets(BraidWord(3), [2, 4, 3])

    @pytest.mark.parametrize("b", WORDS, ids=IDS)
    def test_one_pass_agrees_with_skein(self, b):
        # The packed weights must decode exactly, however large their
        # coefficients grow inside the pass.
        P = skein.homfly(b)
        m = len(linking_tuple(b))
        invs = statemodel.invariant_statesums(b, [4, 2, 5, 3])
        assert sorted(invs) == [2, 3, 4, 5]
        for N, inv in invs.items():
            assert inv == skein.quantum_sln(P, N, m), N


def random_n_word(rng, n, len_max):
    """A random word on exactly n strands; the one-strand word is empty."""
    letters = [s * k for k in range(1, n) for s in (1, -1)]
    length = rng.randint(0, len_max) if letters else 0
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))


class TestRankPass:
    """One pass over rank patterns against the per-N references."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_slot_bracket(self, n):
        rng = random.Random(100 + n)
        for _ in range(6):
            b = random_n_word(rng, n, 7)
            ns = rng.sample(range(2, 6), rng.randint(1, 4))
            got = statemodel.brackets(b, ns)
            assert sorted(got) == sorted(ns)
            for N in ns:
                assert got[N] == slot_bracket(b, N), (b.text(), ns, N)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_bracket(self, n):
        rng = random.Random(200 + n)
        for _ in range(4):
            b = random_n_word(rng, n, 4 if n < 4 else 3)
            got = statemodel.brackets(b, [3, 2])
            for N in (2, 3):
                assert got[N] == brute_bracket(b, N), (b.text(), N)

    @pytest.mark.parametrize("ns", [[5, 2], [2, 5], [4], [5, 3, 2, 4]],
                             ids=str)
    def test_n_lists(self, ns):
        # N above the strand count, unsorted lists and gaps.
        rng = random.Random(307)
        for n in (2, 3):
            for _ in range(4):
                b = random_n_word(rng, n, 6)
                got = statemodel.brackets(b, ns)
                assert got == {N: slot_bracket(b, N) for N in ns}, b.text()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_empty_word(self, n):
        # The identity braid closes into n unknots: (sum_I q^I)^n.
        got = statemodel.brackets(BraidWord(n), [5, 2])
        assert got == {N: quantum_integer(N) ** n for N in (2, 5)}

    @pytest.mark.parametrize("ns, message", [
        ([], "need at least one N"), ([3, 1], "N must be >= 2: 1")])
    def test_rejects_bad_n_lists(self, ns, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            statemodel.brackets(HOPF, ns)

    def test_ordered_sum(self):
        for sizes in ((1,), (2,), (1, 1), (2, 1), (1, 3), (1, 2, 1)):
            for N in (2, 3, 4):
                brute = {}
                for vs in itertools.combinations(
                        statemodel.labels_range(N), len(sizes)):
                    d = sum(m * v for m, v in zip(sizes, vs))
                    brute[d] = brute.get(d, 0) + 1
                packed = statemodel._ordered_sum(sizes, N, 8)
                assert unpack(packed, 8, -(N - 1) * sum(sizes)) == brute, \
                    (sizes, N)

    def test_pattern_count(self):
        for n in range(1, 6):
            for blocks in range(1, 7):
                patterns = list(statemodel._rank_patterns(n, blocks))
                assert len(set(patterns)) == len(patterns) == \
                    statemodel._pattern_count(n, blocks)
                assert all(set(r) == set(range(max(r) + 1)) and
                           max(r) < blocks for r in patterns)


class TestCentredPass:
    """The pass starts every weight at q^0, raises the exponents of all
    weights before each block of ROOM letters by the block's length, and
    takes q^-1 by a right shift of the packed integer."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize("base", [(2, (1,)), (3, (1, 2))],
                             ids=["s1", "s1s2"])
    def test_powers_agree_with_skein(self, base, sign):
        # An all-negative word shifts the all-equal states down to the
        # exponent floor, an all-positive one up to twice the offset.
        n, letters = base
        for k in range(1, 41):
            b = power(BraidWord(n, tuple(sign * e for e in letters)), k)
            P = skein.homfly(b)
            m = len(linking_tuple(b))
            invs = statemodel.invariant_statesums(b, [2, 3, 4, 5])
            for N, inv in invs.items():
                assert inv == skein.quantum_sln(P, N, m), (b.text(), N)

    @pytest.mark.parametrize("room", [1, 2, 7])
    def test_block_length_does_not_matter(self, room, monkeypatch):
        # Short blocks put the raise between any two letters, including
        # right after a run of q^-1 factors that reached the floor.
        rng = random.Random(409 + room)
        words = [random_n_word(rng, n, 30) for n in (2, 3, 4) for _ in range(3)]
        words += [BraidWord(3, (-1, -2) * 12), BraidWord(2, (-1,) * 15)]
        expected = [statemodel.brackets(b, [2, 3, 4]) for b in words]
        monkeypatch.setattr(statemodel, "ROOM", room)
        for b, want in zip(words, expected):
            assert statemodel.brackets(b, [2, 3, 4]) == want, b.text()

    def test_words_that_skip_a_generator(self):
        # Slots 2 and 3 never meet: only sigma_1 and sigma_3 are indexed.
        rng = random.Random(401)
        for _ in range(8):
            b = BraidWord(4, tuple(rng.choice((1, -1, 3, -3))
                                   for _ in range(rng.randint(1, 10))))
            got = statemodel.brackets(b, [2, 3, 4, 5])
            for N in (2, 3, 4, 5):
                assert got[N] == slot_bracket(b, N), (b.text(), N)


class TestProperStates:
    def test_count_is_n_to_m(self):
        rng = random.Random(89)
        for _ in range(10):
            b = random_word(rng, len_max=5)
            m = len(linking_tuple(b))
            for N in (2, 3):
                proper = [s for s in enumerate_states(b, N)
                          if is_proper(s)]
                assert len(proper) == N ** m

    def test_bijection_onto_component_labelings(self):
        # A proper state is constant on each link component; the map to
        # component label tuples is a bijection onto I_N^m.
        rng = random.Random(97)
        for _ in range(8):
            b = random_word(rng, len_max=5)
            if not b.letters:
                continue
            arc_of, _ = braid_segments(b)
            comp_of = strand_component(b)
            m = len(linking_tuple(b))
            for N in (2, 3):
                images = set()
                for s in enumerate_states(b, N):
                    if not is_proper(s):
                        continue
                    comp_label = {}
                    for (row, slot), arc in arc_of.items():
                        if row != 0:
                            continue
                        # slot at row 0 is occupied by strand `slot`
                        c = comp_of[slot]
                        lab = s.labels[arc]
                        assert comp_label.setdefault(c, lab) == lab
                    images.add(tuple(comp_label[c] for c in range(m)))
                assert len(images) == N ** m

    def test_no_flat_self_crossings(self):
        # In a proper state every flat crossing joins two distinct
        # components (it carries two different labels), so no component
        # crosses itself flat.
        for b in (TREFOIL, HOPF, FIGURE_EIGHT):
            selfx = set(self_crossing_indices(b))
            for s in enumerate_states(b, 3):
                if not is_proper(s):
                    continue
                for i in selfx:
                    assert s.rules[i] in (2, 5)


def test_writhe_normalization():
    # q^(-w N) prefactor: bracket and invariant differ by exactly that shift.
    b = TREFOIL
    br = statemodel.brackets(b, (2,))[2]
    inv = statemodel.invariant_statesums(b, (2,))[2]
    assert inv == br.shift(-writhe(b) * 2)
