import copy
import pickle
import random

import pytest

from linkperiod import skein
from linkperiod.diagram import (BraidWord, Crossing, ParseError, PlanarDiagram,
                                _arc_cycles, closure_components, linking_tuple,
                                parse_braid, parse_pd, pd_from_braid, power,
                                writhe)
from linkperiod.vogel import braid_from_pd
from reference import segment_pd


class TestParseBraid:
    def test_plain(self):
        b = parse_braid("1 1 1")
        assert b.n == 2 and b.letters == (1, 1, 1)

    def test_declared_strands(self):
        b = parse_braid("n=3; 1 -2 1 -2")
        assert b.n == 3 and b.letters == (1, -2, 1, -2)

    def test_zero_letter_rejected(self):
        with pytest.raises(ParseError):
            parse_braid("1 0 1")

    def test_letter_out_of_range(self):
        with pytest.raises(ParseError):
            parse_braid("n=2; 2")

    def test_garbage_token(self):
        with pytest.raises(ParseError):
            parse_braid("1 x 1")

    def test_empty_word(self):
        b = parse_braid("n=2;")
        assert b.n == 2 and b.letters == ()

    @pytest.mark.parametrize("text", ["1_1", "+1 +1 +1", "1 +1", "\u0663",
                                      "n=\u0663; 1", "1 -\u0661"])
    def test_letter_is_minus_and_ascii_digits(self, text):
        with pytest.raises(ParseError):
            parse_braid(text)


class TestClosure:
    def test_trefoil_is_knot(self):
        assert closure_components(BraidWord(2, (1, 1, 1))) == [(1, 2)]

    def test_hopf_two_components(self):
        assert closure_components(BraidWord(2, (1, 1))) == [(1,), (2,)]

    def test_empty_word_unlink(self):
        assert closure_components(BraidWord(2)) == [(1,), (2,)]

    def test_axis_linking(self):
        assert linking_tuple(BraidWord(2, (1, 1, 1))) == (2,)
        assert linking_tuple(BraidWord(2, (1, 1))) == (1, 1)
        assert linking_tuple(BraidWord(1)) == (1,)

    def test_linking_numbers_sum_to_strand_count(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 4)
            letters = tuple(rng.choice(range(1, n)) * rng.choice((1, -1))
                            for _ in range(rng.randint(0, 6))) if n > 1 else ()
            b = BraidWord(n, letters)
            assert sum(linking_tuple(b)) == n


class TestWrithe:
    def test_examples(self):
        assert writhe(BraidWord(2, (1, 1, 1))) == 3
        assert writhe(BraidWord(2, (1, -1))) == 0
        assert writhe(BraidWord(2)) == 0

    def test_power_scales_writhe(self):
        rng = random.Random(5)
        for _ in range(30):
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 5)))
            b = BraidWord(3, letters)
            p = rng.randint(1, 5)
            assert writhe(power(b, p)) == p * writhe(b)


class TestPower:
    def test_concatenates(self):
        assert power(BraidWord(2, (1,)), 3).letters == (1, 1, 1)

    def test_identity_power(self):
        b = BraidWord(3, (1, -2))
        assert power(b, 1) == b

    def test_empty(self):
        assert power(BraidWord(2), 5).letters == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            power(BraidWord(2, (1,)), 0)


def random_braid(rng) -> BraidWord:
    """A word of at most 30 letters on at most 8 strands; short words
    leave some slots untouched."""
    n = rng.randint(1, 8)
    letters = [rng.choice([-1, 1]) * rng.randint(1, n - 1)
               for _ in range(rng.randint(0, 30) if n > 1 else 0)]
    return BraidWord(n, tuple(letters))


class TestPdFromBraid:
    def test_single_crossing(self):
        d = pd_from_braid(BraidWord(2, (1,)))
        assert len(d.crossings) == 1
        assert len({a for c in d.crossings for a in c.arcs()}) == 2

    def test_trefoil(self):
        d = pd_from_braid(BraidWord(2, (1, 1, 1)))
        assert len(d.crossings) == 3
        assert len({a for c in d.crossings for a in c.arcs()}) == 6
        assert sum(c.sign for c in d.crossings) == 3
        assert len(_arc_cycles(d.crossings)) + d.free_loops == 1

    def test_empty_single_strand(self):
        d = pd_from_braid(BraidWord(1))
        assert len(d.crossings) == 0
        assert d.free_loops == 1

    def test_untouched_strand_becomes_free_loop(self):
        d = pd_from_braid(BraidWord(3, (1,)))
        assert d.free_loops == 1
        assert len(_arc_cycles(d.crossings)) + d.free_loops == 2

    def test_signs_preserved(self):
        d = pd_from_braid(BraidWord(3, (1, -2, 1, -2)))
        assert sorted(c.sign for c in d.crossings) == [-1, -1, 1, 1]

    def test_matches_segment_reference(self):
        rng = random.Random(17)
        # Empty words, untouched low slots, and a word on the top slot only.
        named = [BraidWord(1), BraidWord(3), parse_braid("n=5; -4 2"),
                 BraidWord(4, (3, -3, 3))]
        for b in named + [random_braid(rng) for _ in range(2000)]:
            assert pd_from_braid(b) == segment_pd(b), b.text()

    def test_output_reparses(self):
        rng = random.Random(9)
        seen = 0
        for _ in range(2000):
            b = random_braid(rng)
            d = pd_from_braid(b)
            if d.free_loops:
                continue
            seen += 1
            assert parse_pd(d.pd_text()) == d, b.text()
        assert seen > 1000


class TestParsePd:
    def test_trefoil(self):
        d = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        assert len(d.crossings) == 3
        assert len(_arc_cycles(d.crossings)) + d.free_loops == 1
        assert sum(c.sign for c in d.crossings) == 3

    def test_arc_count_violation(self):
        with pytest.raises(ParseError):
            parse_pd("X[1,2,3,4]")
        with pytest.raises(ParseError):
            parse_pd("X[1,1,1,2] X[2,3,3,4]")

    def test_single_kink_is_unknot(self):
        d = parse_pd("X[1,1,2,2]")
        assert len(_arc_cycles(d.crossings)) + d.free_loops == 1
        assert skein.homfly(braid_from_pd(d), d) == \
            skein.homfly(BraidWord(1))

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_pd("")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_pd("X[1,4,2,5] nonsense")

    def test_arcs_are_ascii_digits(self):
        with pytest.raises(ParseError):
            parse_pd("X[\u0661,4,2,5] X[3,6,4,\u0661] X[5,2,6,3]")

    def test_over_only_cycle_follows_first_crossing(self):
        # Arcs 2 and 4 are over at both crossings, so either direction
        # fits; the first crossing's preferred choice (4 -> 2) decides.
        d = parse_pd("X[1,2,3,4] X[3,4,1,2]")
        assert [c.sign for c in d.crossings] == [-1, -1]
        assert len(_arc_cycles(d.crossings)) + d.free_loops == 2

    def test_unsatisfiable_orientation_fails_fast(self):
        # Each pair below closes an over-only cycle with two orientations,
        # and the last four crossings admit none; a search over the
        # choices would take 2^30 steps.
        pairs = " ".join(
            f"X[{a},{a + 1},{a + 2},{a + 3}] X[{a + 2},{a + 3},{a},{a + 1}]"
            for a in range(9, 9 + 4 * 30, 4))
        with pytest.raises(ParseError, match="no consistent over-strand"):
            parse_pd(pairs + " X[5,2,6,4] X[6,4,8,8] X[3,7,1,2] X[1,3,7,5]")


def test_braidword_validation():
    with pytest.raises(ParseError):
        BraidWord(0)
    with pytest.raises(ParseError):
        BraidWord(2, (2,))
    with pytest.raises(ParseError):
        BraidWord(2, (0,))


class TestValueSemantics:
    """BraidWord and PlanarDiagram are immutable values."""

    HOPF_PD = (Crossing(1, 3, 1, 2, 4), Crossing(1, 4, 2, 1, 3))

    def test_equal_fields_equal_objects(self):
        assert BraidWord(2, (1, 1, 1)) == BraidWord(2, [1, 1, 1])
        assert hash(BraidWord(2, (1, 1, 1))) == hash(BraidWord(2, [1, 1, 1]))
        assert BraidWord(2, (1, 1, 1)) != BraidWord(3, (1, 1, 1))
        assert BraidWord(2, (1,)) != BraidWord(2, (-1,))
        d = PlanarDiagram(list(self.HOPF_PD), 1)
        assert d == PlanarDiagram(self.HOPF_PD, 1)
        assert hash(d) == hash(PlanarDiagram(self.HOPF_PD, 1))
        assert d != PlanarDiagram(self.HOPF_PD, 0)
        assert len({BraidWord(2, (1,)), BraidWord(2, [1]), BraidWord(2)}) == 2

    def test_other_types_are_not_equal(self):
        assert BraidWord(1) != PlanarDiagram()
        assert BraidWord(2, (1,)) != (2, (1,))

    def test_fields_cannot_be_assigned(self):
        b, d = BraidWord(2, (1,)), PlanarDiagram(self.HOPF_PD)
        for obj, name, value in ((b, "n", 3), (b, "letters", ()),
                                 (d, "free_loops", 2), (d, "crossings", ()),
                                 (b, "other", 0)):
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert (b.n, b.letters) == (2, (1,))
        assert (d.crossings, d.free_loops) == (self.HOPF_PD, 0)

    def test_defaults(self):
        assert BraidWord(3).letters == ()
        empty = PlanarDiagram()
        assert (empty.crossings, empty.free_loops) == ((), 0)
        assert PlanarDiagram(self.HOPF_PD).free_loops == 0

    def test_keyword_construction(self):
        assert BraidWord(n=2, letters=(1, 1)) == BraidWord(2, (1, 1))
        assert PlanarDiagram(free_loops=2) == PlanarDiagram((), 2)
        assert PlanarDiagram(crossings=self.HOPF_PD, free_loops=1) == \
            PlanarDiagram(self.HOPF_PD, 1)

    def test_copy_and_pickle(self):
        for obj in (BraidWord(3, (1, -2)), PlanarDiagram(self.HOPF_PD, 1)):
            assert copy.copy(obj) == copy.deepcopy(obj) == obj
            assert pickle.loads(pickle.dumps(obj)) == obj

    def test_planar_diagram_validation(self):
        with pytest.raises(ParseError, match="negative free loop count"):
            PlanarDiagram((), -1)
        with pytest.raises(ParseError, match="does not occur exactly twice"):
            PlanarDiagram(self.HOPF_PD * 2)
