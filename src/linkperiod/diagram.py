"""Link presentations: braid words and oriented planar diagrams.

Braid closures are the canonical input; vogel.braid_from_pd reads a
planar diagram back as a braid.  A positive braid letter is a positive
crossing (the strand entering on the left passes over), so the closure
of "1 1 1" is the right-handed trefoil.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from .laurent import _Value


class ParseError(ValueError):
    """Malformed braid or PD input, or an invalid braid or diagram."""


class BraidWord(_Value):
    """A braid word on `n` strands; letters are nonzero ints with |e| < n."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[int, ...] = ()):
        if n < 1:
            raise ParseError(f"strand count must be >= 1: {n}")
        letters = tuple(letters)
        for e in letters:
            if e == 0 or abs(e) >= n:
                raise ParseError(f"invalid letter {e} for {n} strands")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def text(self) -> str:
        return f"n={self.n}; " + " ".join(str(e) for e in self.letters)


#: The optional strand-count header of braid text.
_HEADER = re.compile(r"^n\s*=\s*([0-9]+)\s*;")


def parse_braid(text: str) -> BraidWord:
    """Parse whitespace-separated letters, optionally led by "n=<strands>;".
    A letter is an optional minus sign and ASCII digits."""
    text = text.strip()
    n_declared = None
    m = _HEADER.match(text)
    if m:
        n_declared = int(m.group(1))
        text = text[m.end():].strip()
    letters = []
    for tok in text.split():
        digits = tok[1:] if tok[:1] == "-" else tok
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"malformed braid token: {tok!r}")
        e = int(tok)
        if e == 0:
            raise ParseError("braid letter 0 is not allowed")
        letters.append(e)
    n = n_declared if n_declared is not None else (1 + max((abs(e) for e in letters), default=0))
    return BraidWord(n, tuple(letters))


def cycles(succ: dict) -> list[list]:
    """The cycles of a permutation given as a successor map, each started
    at its first key in the map's order, in that order."""
    seen = set()
    out = []
    for a in succ:
        if a not in seen:
            cyc = []
            while a not in seen:
                seen.add(a)
                cyc.append(a)
                a = succ[a]
            out.append(cyc)
    return out


def closure_components(b: BraidWord) -> list[tuple[int, ...]]:
    """Partition of strands {1..n} into closure components.

    Components are cycles of the closure permutation, ordered by their
    smallest strand index; strands are reported 1-based.
    """
    pos = list(range(b.n))  # pos[slot] = strand in that slot at the top
    for e in b.letters:
        j = abs(e) - 1
        pos[j], pos[j + 1] = pos[j + 1], pos[j]
    return [tuple(sorted(s + 1 for s in cyc))
            for cyc in cycles(dict(enumerate(pos)))]


def linking_tuple(b: BraidWord) -> tuple[int, ...]:
    """Axis linking numbers of all closure components, in component order."""
    return tuple(len(c) for c in closure_components(b))


def power(b: BraidWord, p: int) -> BraidWord:
    """Concatenate p copies of the word; the closure is p-periodic about
    the braid axis."""
    if p < 1:
        raise ValueError(f"power must be >= 1: {p}")
    return BraidWord(b.n, b.letters * p)


class Crossing(NamedTuple):
    """An oriented crossing: the under strand runs under_in -> under_out,
    the over strand over_in -> over_out; sign is +1 or -1."""

    sign: int
    under_in: int
    over_in: int
    under_out: int
    over_out: int

    def arcs(self) -> tuple[int, int, int, int]:
        return (self.under_in, self.over_in, self.under_out, self.over_out)

    def pd_tuple(self) -> tuple[int, int, int, int]:
        """Standard X[a,b,c,d]: incoming under-arc first, then counterclockwise."""
        if self.sign > 0:
            return (self.under_in, self.over_in, self.under_out, self.over_out)
        return (self.under_in, self.over_out, self.under_out, self.over_in)


class PlanarDiagram(_Value):
    """An oriented link diagram: crossings plus crossing-free loops."""

    __slots__ = ("crossings", "free_loops")

    def __init__(self, crossings: tuple[Crossing, ...] = (),
                 free_loops: int = 0):
        object.__setattr__(self, "crossings", tuple(crossings))
        object.__setattr__(self, "free_loops", free_loops)
        if free_loops < 0:
            raise ParseError("negative free loop count")
        self.validate()

    def validate(self):
        ins: dict[int, int] = {}
        outs: dict[int, int] = {}
        for c in self.crossings:
            if c.sign not in (1, -1):
                raise ParseError(f"bad crossing sign {c.sign}")
            for a in (c.under_in, c.over_in):
                ins[a] = ins.get(a, 0) + 1
            for a in (c.under_out, c.over_out):
                outs[a] = outs.get(a, 0) + 1
        if set(ins) != set(outs):
            raise ParseError("inconsistent arc orientation: an arc lacks a head or a tail")
        for a, k in ins.items():
            if k != 1 or outs[a] != 1:
                raise ParseError(f"arc {a} does not occur exactly twice")

    def pd_text(self) -> str:
        return " ".join(
            "X[{},{},{},{}]".format(*c.pd_tuple()) for c in self.crossings
        )


def writhe(b: BraidWord) -> int:
    return sum(1 if e > 0 else -1 for e in b.letters)


def pd_from_braid(b: BraidWord) -> PlanarDiagram:
    """Diagram of the trace closure; arcs numbered consecutively along
    each component, crossing count equals the letter count.

    One pass over the letters, O(k + n) for k letters on n strands.  The
    arc in slot s (0-based) at the bottom has raw id s.  A letter emits
    its outputs left slot first: an output after the last letter on its
    slot wraps round the closure onto raw id s, any other takes the next
    fresh id from n up.  The strand entering a crossing on the left
    leaves it on the right and the other the reverse, which gives each
    raw id its successor.  Renumbering along the components then gives
    arcs 1, 2, ...: each component starts at its smallest raw id, that of
    a slot some letter touches, and the components go in the order of
    those ids; slots no letter touches are crossing-free loops.
    """
    last = {}                       # slot -> index of the last letter on it
    for i, e in enumerate(b.letters):
        last[abs(e) - 1] = last[abs(e)] = i
    arc = list(range(b.n))          # raw id of the arc now in each slot
    succ = dict.fromkeys(sorted(last))  # raw id -> next; slot ids first
    fresh = itertools.count(b.n)
    raw = []
    for i, e in enumerate(b.letters):
        j = abs(e) - 1
        in_l, in_r = arc[j], arc[j + 1]
        for s in (j, j + 1):
            arc[s] = s if last[s] == i else next(fresh)
        out_l, out_r = arc[j], arc[j + 1]
        succ[in_l], succ[in_r] = out_r, out_l
        raw.append((1, in_r, in_l, out_l, out_r) if e > 0
                   else (-1, in_l, in_r, out_r, out_l))
    number = {a: i for i, a in
              enumerate(itertools.chain.from_iterable(cycles(succ)), 1)}
    crossings = tuple(Crossing(sign, number[a], number[b_], number[c],
                               number[d])
                      for sign, a, b_, c, d in raw)
    return PlanarDiagram(crossings, b.n - len(last))


#: One crossing of PD text.
_PD_TOKEN = re.compile(r"X\[\s*([0-9]+)\s*,\s*([0-9]+)\s*,"
                       r"\s*([0-9]+)\s*,\s*([0-9]+)\s*\]")


def parse_pd(text: str) -> PlanarDiagram:
    """Parse PD text like "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]".

    Arcs must be numbered consecutively along each component; the over
    strand's direction (and hence each crossing sign) is inferred from
    that numbering.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty PD input")
    tuples = []
    pos = 0
    for m in _PD_TOKEN.finditer(text):
        if text[pos:m.start()].strip():
            raise ParseError(f"malformed PD text near: {text[pos:m.start()].strip()!r}")
        tuples.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"malformed PD text near: {text[pos:].strip()!r}")

    counts: dict[int, int] = {}
    for t in tuples:
        for a in t:
            counts[a] = counts.get(a, 0) + 1
    bad = [a for a, c in counts.items() if c != 2]
    if bad:
        raise ParseError(f"arcs used != 2 times: {sorted(bad)}")

    # a is the incoming under-arc, c the outgoing one.  Of the over pair
    # (b_, d) the incoming arc is normally the numeric predecessor
    # (larger arc incoming on wraparound), but short components make the
    # local rule ambiguous.  Every arc is an end of exactly two strands
    # (under a -> c, over b_ - d), so the strands form cycles, and a
    # diagram orients each cycle one way round.  A cycle through an
    # under strand takes the direction that strand forces; an over-only
    # cycle takes the preferred choice of its first crossing.
    options = []
    for (a, b_, c, d) in tuples:
        pos = Crossing(1, under_in=a, over_in=b_, under_out=c, over_out=d)
        neg = Crossing(-1, under_in=a, over_in=d, under_out=c, over_out=b_)
        if d == b_ + 1 or (b_ != d + 1 and b_ > d):
            options.append((pos, neg))
        else:
            options.append((neg, pos))
    if len({t[0] for t in tuples}) < len(tuples) or \
            len({t[2] for t in tuples}) < len(tuples):
        raise ParseError("inconsistent under-strand orientation")

    # Strand 2i is crossing i's under strand, 2i + 1 its over strand in
    # the preferred direction; ends[arc] lists (strand, arc is its head).
    strands = []
    for t, (pref, _) in zip(tuples, options):
        strands += [(t[0], t[2]), (pref.over_in, pref.over_out)]
    ends: dict[int, list[tuple[int, bool]]] = {a: [] for a in counts}
    for s, (x, y) in enumerate(strands):
        ends[x].append((s, False))
        ends[y].append((s, True))
    chosen: list[Crossing | None] = [None] * len(tuples)
    for i in range(len(tuples)):
        if chosen[i] is not None:
            continue
        walk = []                       # (strand, traversed tail to head)
        s, forward = 2 * i + 1, True
        while not walk or s != 2 * i + 1:
            walk.append((s, forward))
            e0, e1 = ends[strands[s][forward]]
            s, head = e1 if e0 == (s, forward) else e0
            forward = not head
        under = {fwd for s, fwd in walk if s % 2 == 0}
        if len(under) > 1:
            raise ParseError("no consistent over-strand orientation: "
                             "arcs are not numbered along components")
        reverse = under == {False}
        for s, fwd in walk:
            if s % 2:
                chosen[s // 2] = options[s // 2][fwd == reverse]
    return PlanarDiagram(tuple(chosen), 0)
