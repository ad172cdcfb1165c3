"""Property tests of the input edges: the braid and PD parsers, `check` on
arbitrary braid text and `batch` on arbitrary CSV rows.  Malformed input
must end in ParseError (exit 1 from the CLI) or a per-row error object,
never in another exception."""

import contextlib
import csv
import io
import json

from hypothesis import given, settings, strategies as st

from linkperiod import cli
from linkperiod.diagram import (BraidWord, ParseError, closure_components,
                                parse_braid, parse_pd, pd_from_braid, writhe)
from reference import arc_cycles

#: Fixed examples and no example database, so every run tries the same
#: inputs; no deadline, because timing is not what these tests check.
FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=200)
FUZZ_CLI = settings(FUZZ, max_examples=60)

#: Text that survives a UTF-8 file and the csv module.
TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\x00"), max_size=40)


@st.composite
def braid_words(draw, max_n=8, max_len=12):
    n = draw(st.integers(1, max_n))
    if n == 1:
        return BraidWord(1)
    letter = st.integers(1, n - 1).flatmap(lambda k: st.sampled_from((k, -k)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=max_len))))


@st.composite
def braid_text(draw):
    """Braid-like text: an optional, possibly malformed "n=<k>;" head, then
    small letters, sometimes with one junk token.  Strand counts stay below
    10, so every input that parses is cheap to run."""
    head = draw(st.sampled_from(["", "", "", "n=2; ", "n=3;", "n = 4 ;",
                                 "n=9;", "n=0;", "n=1;", "n=;", "n=-2;"]))
    letter = st.integers(1, 4).flatmap(lambda k: st.sampled_from((k, -k)))
    toks = [str(e) for e in draw(st.lists(letter, max_size=8))]
    if draw(st.integers(0, 2)) == 0:
        toks.insert(draw(st.integers(0, len(toks))),
                    draw(st.sampled_from(["0", "x", "1.5", "--1", "+2", "1,2",
                                          ";", "n=2;", "X[1,2,3,4]"])))
    return head + draw(st.sampled_from([" ", "  ", "\t"])).join(toks)


#: PD-like text: crossings on small arc labels, sometimes with junk, or
#: the PD code of a small braid closure.
PD_TEXT = st.one_of(
    st.builds(lambda tuples, junk: " ".join("X[{},{},{},{}]".format(*t)
                                            for t in tuples) + junk,
              st.lists(st.tuples(*[st.integers(0, 8)] * 4), max_size=6),
              st.sampled_from(["", " ", " X[1,2]", " Y", "]"])),
    braid_words(max_n=4, max_len=8).map(lambda b: pd_from_braid(b).pd_text()))


def parses(parser, text):
    try:
        parser(text)
    except ParseError:
        return False
    return True


@FUZZ
@given(st.one_of(TEXT, braid_text()))
def test_parse_braid_returns_or_raises_parse_error(text):
    parses(parse_braid, text)


@FUZZ
@given(st.one_of(TEXT, PD_TEXT))
def test_parse_pd_returns_or_raises_parse_error(text):
    parses(parse_pd, text)


@FUZZ
@given(braid_words())
def test_braid_text_round_trip(b):
    assert parse_braid(b.text()) == b


@FUZZ
@given(braid_words(max_n=5, max_len=10))
def test_pd_text_round_trip(b):
    d = pd_from_braid(b)
    if d.crossings and not d.free_loops:
        assert parse_pd(d.pd_text()) == d


@FUZZ
@given(braid_words())
def test_braid_closure_agrees_with_its_diagram(b):
    # The component count and writhe read off the braid are those of the
    # diagram pd_from_braid draws, whose arcs run 1..2k consecutively
    # along each component.
    d = pd_from_braid(b)
    loops = arc_cycles(d.crossings)
    assert len(closure_components(b)) == len(loops) + d.free_loops
    assert writhe(b) == sum(c.sign for c in d.crossings)
    arcs = [a for loop in loops for a in loop]
    assert arcs == list(range(1, 2 * len(b) + 1))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@FUZZ_CLI
@given(braid_text())
def test_check_exits_1_exactly_on_parse_errors(text):
    code, _, err = run_cli(["check", "--braid", text, "-p", "3",
                            "--max-crossings", "8"])
    assert (code == 1) == (not parses(parse_braid, text)), err


ROWS = st.lists(st.one_of(
    st.tuples(TEXT, st.sampled_from(["braid", " braid "]), braid_text()),
    st.tuples(TEXT, st.just("pd"), PD_TEXT),
    st.tuples(TEXT, TEXT, TEXT)), max_size=5)


@settings(FUZZ_CLI, max_examples=30)
@given(ROWS)
def test_batch_reports_every_row(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("batch") / "rows.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.BATCH_FIELDS)
        writer.writerows(rows)
    code, out, err = run_cli(["batch", str(path), "-p", "3",
                              "--max-crossings", "8"])
    assert code == 0, err
    reports = json.loads(out)
    assert [r["name"] for r in reports] == [name for name, _, _ in rows]
    assert all(("error" in r) != ("verdict" in r) for r in reports)
