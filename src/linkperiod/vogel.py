"""Planar diagrams read back as braids, by Vogel's algorithm (Vogel,
"Representation of links by braids: a new algorithm", Comment. Math.
Helv. 65, 1990).

The faces of a diagram come from the counterclockwise order of the arcs
at each crossing; a connected piece with c crossings is planar exactly
when it has c + 2 faces.  A face is a defect when arcs of two different
Seifert circles run the same way round it.  A Vogel move pushes one of
those arcs over the other across the face (a Reidemeister II move): it
adds two crossings of opposite sign, merges the two circles and makes a
new small one, so the circle count stays, and it lowers the height of
the diagram, at most (s - 1)(s - 2) / 2 for s circles, by one.  With no
defect left the circles are nested and coherently oriented, so the
diagram is a closed braid on s strands; Yamada (Invent. Math. 89, 1987)
used this to show that the braid index is the least Seifert circle count
of any diagram of the link.  The braid is read off by cutting every
circle along one ray from the axis.
"""

from __future__ import annotations

from .diagram import BraidWord, Crossing, ParseError, PlanarDiagram, cycles

#: The positions of Crossing.pd_tuple() where an arc leaves the crossing.
_OUT_POSITIONS = {1: (2, 3), -1: (1, 2)}


def _pieces(crossings) -> list[list[Crossing]]:
    """The crossings of each connected piece of a diagram."""
    at: dict[int, list[int]] = {}
    for i, c in enumerate(crossings):
        for a in c.arcs():
            at.setdefault(a, []).append(i)
    seen: set[int] = set()
    pieces = []
    for i in range(len(crossings)):
        if i in seen:
            continue
        seen.add(i)
        piece = [i]
        for j in piece:
            for a in crossings[j].arcs():
                for k in at[a]:
                    if k not in seen:
                        seen.add(k)
                        piece.append(k)
        pieces.append([crossings[j] for j in sorted(piece)])
    return pieces


def _faces(crossings) -> list[list[tuple[int, bool]]]:
    """Faces of a diagram as lists of (arc, forward) steps.  From an end of
    an arc at a crossing, a step follows the arc to its other end, and the
    next step leaves that crossing by the next position counterclockwise;
    forward says the step runs along the arc's orientation."""
    rows = [c.pd_tuple() for c in crossings]
    ends: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(rows):
        for k, a in enumerate(row):
            ends.setdefault(a, []).append((i, k))
    succ = {}
    for i, row in enumerate(rows):
        for k, a in enumerate(row):
            first, second = ends[a]
            j, l = second if first == (i, k) else first
            succ[(i, k)] = (j, (l + 1) % 4)
    return [[(rows[i][k], k in _OUT_POSITIONS[crossings[i].sign])
             for i, k in face] for face in cycles(succ)]


def _seifert_circles(crossings) -> tuple[dict[int, int], dict[int, int]]:
    """(successor, circle): the oriented smoothing continues under_in into
    over_out and over_in into under_out; circle numbers the cycles of that
    successor map from 0."""
    succ = {}
    for c in crossings:
        succ[c.under_in] = c.over_out
        succ[c.over_in] = c.under_out
    circle = {a: k for k, cyc in enumerate(cycles(succ)) for a in cyc}
    return succ, circle


def _defect(faces, circle) -> tuple[int, int, bool] | None:
    """(arc, arc, forward) for two arcs of different Seifert circles that
    run the same way round one face, or None if no face has such a pair."""
    for face in faces:
        first: dict[bool, int] = {}
        for a, forward in face:
            b = first.setdefault(forward, a)
            if circle[b] != circle[a]:
                return b, a, forward
    return None


def _vogel_move(crossings, over, under, forward) -> list[Crossing]:
    """Push arc `over` across their shared face and over arc `under` (a
    Reidemeister II move).  `over` meets the new crossings x then y, and
    `under` meets y then x; the arcs keep their labels up to the first new
    crossing they meet, and the parts after it take fresh labels.  Both
    arcs running forward round the face makes x positive and y negative,
    both backward the reverse."""
    top = max(a for c in crossings for a in c.arcs())
    mid_over, end_over, mid_under, end_under = range(top + 1, top + 5)
    relabel = {over: end_over, under: end_under}
    out = [c._replace(under_in=relabel.get(c.under_in, c.under_in),
                      over_in=relabel.get(c.over_in, c.over_in))
           for c in crossings]
    sign = 1 if forward else -1
    out.append(Crossing(sign, under_in=mid_under, over_in=over,
                        under_out=end_under, over_out=mid_over))
    out.append(Crossing(-sign, under_in=under, over_in=mid_over,
                        under_out=mid_under, over_out=end_over))
    return out


def _braid_of_piece(crossings) -> tuple[int, list[int]]:
    """(strands, letters) of a braid with one strand per Seifert circle of
    the connected piece; a piece that is not planar is refused."""
    faces = _faces(crossings)
    if len(faces) == len(crossings) + 2:
        succ, circle = _seifert_circles(crossings)
        s = len(set(circle.values()))
        # Each move lowers the height, at most (s - 1)(s - 2) / 2, by one.
        for _ in range((s - 1) * (s - 2) // 2 + 1):
            defect = _defect(faces, circle)
            if defect is None:
                letters = _read_braid(crossings, faces, succ, circle, s)
                if letters is not None:
                    return s, letters
                break
            crossings = _vogel_move(crossings, *defect)
            faces = _faces(crossings)
            succ, circle = _seifert_circles(crossings)
    raise ParseError("this PD code is not planar")


def _read_braid(crossings, faces, succ, circle, s) -> list[int] | None:
    """The letters of a piece with s Seifert circles and no defect, or None
    if the circles' orders of crossings conflict.  The circles are nested,
    so the Seifert graph is a path and its order gives each circle's
    level.  The levels run so that the over strand of a positive crossing
    enters from the lower level, as in pd_from_braid."""
    neighbours: list[set[int]] = [set() for _ in range(s)]
    for c in crossings:
        x, y = circle[c.over_in], circle[c.under_in]
        neighbours[x].add(y)
        neighbours[y].add(x)
    level = [-1] * s
    queue = [next(k for k in range(s) if len(neighbours[k]) == 1)]
    level[queue[0]] = 0
    for k in queue:
        for j in neighbours[k]:
            if level[j] < 0:
                level[j] = level[k] + 1
                queue.append(j)
    c = crossings[0]
    if (c.sign > 0) != (level[circle[c.over_in]] < level[circle[c.under_in]]):
        level = [s - 1 - v for v in level]
    # Cut each circle at one arc so that consecutive cuts share a face, as
    # a ray from the axis would, and list the crossings along each circle
    # from its cut.
    faces_of: dict[int, list[int]] = {}
    for f, face in enumerate(faces):
        for a, _ in face:
            faces_of.setdefault(a, []).append(f)
    cut = [next(a for a in succ if level[circle[a]] == 0)]
    for k in range(1, s):
        cut.append(next(a for f in faces_of[cut[-1]] for a, _ in faces[f]
                        if level[circle[a]] == k))
    head = {}
    for i, c in enumerate(crossings):
        head[c.under_in] = head[c.over_in] = i
    along = []
    for a in cut:
        row = [head[a]]
        t = succ[a]
        while t != a:
            row.append(head[t])
            t = succ[t]
        along.append(row)
    # A crossing between levels k and k + 1 is next when it comes next on
    # both circles.
    pos = [0] * s
    letters = []
    while len(letters) < len(crossings):
        k = next((k for k in range(s - 1)
                  if pos[k] < len(along[k]) and pos[k + 1] < len(along[k + 1])
                  and along[k][pos[k]] == along[k + 1][pos[k + 1]]), None)
        if k is None:
            return None
        letters.append(crossings[along[k][pos[k]]].sign * (k + 1))
        pos[k] += 1
        pos[k + 1] += 1
    return letters


def braid_from_pd(d: PlanarDiagram) -> BraidWord:
    """A braid whose closure is the diagram's link, with one strand per
    Seifert circle and two letters more per Vogel move than the diagram
    has crossings.  Split pieces and free loops go side by side on
    disjoint strands.  An empty or non-planar diagram raises ParseError."""
    if not d.crossings and not d.free_loops:
        raise ParseError("the diagram is empty")
    n = d.free_loops
    letters: list[int] = []
    for piece in _pieces(d.crossings):
        strands, word = _braid_of_piece(piece)
        letters += [e + n if e > 0 else e - n for e in word]
        n += strands
    return BraidWord(n, tuple(letters))
