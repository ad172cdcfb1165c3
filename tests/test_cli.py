import argparse
import errno
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from linkperiod import cli, laurent, skein, skeinroute, statemodel, vogel
from linkperiod.diagram import (BraidWord, PlanarDiagram, parse_braid,
                                pd_from_braid)
from test_skein import connected_sum

TREFOIL = "1 1 1"
TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"

#: One non-planar PD code labelled two ways; the skein route gave each
#: labelling a different HOMFLY.
NON_PLANAR = ("X[1,3,2,4] X[4,3,1,2]", "X[2,4,3,1] X[1,4,2,3]")


def run_main(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariant:
    def test_json_report(self, capsys):
        code, out, _ = run_main(
            ["invariant", "--braid", TREFOIL, "--format", "json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["components"] == 1
        assert rep["writhe"] == 3
        homfly = {tuple(k): v for k, v in rep["homfly"]}
        assert homfly == {(2, 0): 2, (4, 0): -1, (2, 2): 1}
        assert rep["quantum"]["2"] == [[-9, -1], [-5, 1], [-3, 1], [-1, 1]]
        assert rep["jones"]["variable"] == "t"
        assert rep["alexander"] == [[0, 1], [1, -1], [2, 1]]

    def test_text_format(self, capsys):
        code, out, _ = run_main(["invariant", "--braid", TREFOIL], capsys)
        assert code == 0
        assert "homfly:" in out and "quantum N=2:" in out

    def test_pd_input(self, capsys):
        code, out, _ = run_main(
            ["invariant", "--pd", TREFOIL_PD,
             "--format", "json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["quantum"]["2"] == [[-9, -1], [-5, 1], [-3, 1], [-1, 1]]

    def test_oracle_flag(self, capsys):
        code, _, _ = run_main(
            ["invariant", "--braid", TREFOIL, "--oracle"], capsys)
        assert code == 0

    def test_oracle_one_pass_for_every_n(self, capsys, monkeypatch):
        calls = []
        brackets = statemodel.brackets

        def spy(b, ns):
            calls.append(list(ns))
            return brackets(b, ns)
        monkeypatch.setattr(statemodel, "brackets", spy)
        code, out, _ = run_main(["invariant", "--braid", TREFOIL, "--oracle",
                                 "--n", "5,2,3", "--format", "json"], capsys)
        assert code == 0
        assert calls == [[2, 3, 5]]
        assert list(json.loads(out)["quantum"]) == ["2", "3", "5"]

    def test_oracle_disagreement_exits_2(self, capsys, monkeypatch):
        brackets = statemodel.brackets

        def off_at_3(b, ns):
            out = brackets(b, ns)
            out[3] = out[3].shift(2)
            return out
        monkeypatch.setattr(statemodel, "brackets", off_at_3)
        code, out, err = run_main(["invariant", "--braid", TREFOIL, "--oracle",
                                   "--n", "2,3,4"], capsys)
        assert code == 2
        assert out == ""
        assert "internal inconsistency" in err and "N=3" in err

    def test_oracle_needs_a_planar_pd(self, capsys, monkeypatch):
        def no_statesum(*args, **kwargs):
            raise AssertionError("state sum run on a non-planar code")
        monkeypatch.setattr(statemodel, "brackets", no_statesum)
        code, out, err = run_main(
            ["invariant", "--pd", "X[1,2,3,4] X[3,4,1,2]", "--oracle"], capsys)
        assert code == 1
        assert out == ""
        assert "error" in err and "not planar" in err

    def test_oracle_on_pd_input(self, capsys, monkeypatch):
        seen = []
        brackets = statemodel.brackets

        def spy(b, ns):
            seen.append(b)
            return brackets(b, ns)
        monkeypatch.setattr(statemodel, "brackets", spy)
        args = ["--n", "2,3,4", "--format", "json"]
        code, out, _ = run_main(
            ["invariant", "--pd", TREFOIL_PD, "--oracle"] + args, capsys)
        assert code == 0 and len(seen) == 1
        _, plain, _ = run_main(["invariant", "--pd", TREFOIL_PD] + args,
                               capsys)
        assert out == plain

    def test_oracle_on_random_pds(self, capsys):
        # The CLI exits 2 when the state sum on the Vogel braid and the
        # Hecke route disagree.
        rng = random.Random(83)
        for _ in range(30):
            n = rng.randint(2, 4)
            b = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                   for _ in range(rng.randint(1, 9))))
            code, _, err = run_main(
                ["invariant", "--pd", pd_from_braid(b).pd_text(), "--oracle",
                 "--n", "2,3"], capsys)
            assert code == 0, err

    def test_both_inputs_rejected(self, capsys):
        code, _, err = run_main(
            ["invariant", "--braid", TREFOIL, "--pd", "X[1,1,2,2]"], capsys)
        assert code == 1

    def test_bad_braid(self, capsys):
        code, _, err = run_main(["invariant", "--braid", "1 x"], capsys)
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["invariant", "--braid", TREFOIL],
        ["check", "--braid", TREFOIL, "-p", "3"],
        ["batch", "links.csv", "-p", "3"]], ids=["invariant", "check", "batch"])
    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_max_crossings_below_one_is_usage_error(self, capsys, monkeypatch,
                                                    tmp_path, command, limit):
        (tmp_path / "links.csv").write_text(TestBatch.CSV)
        monkeypatch.chdir(tmp_path)

        def no_homfly(*args, **kwargs):
            raise AssertionError("HOMFLY computed before the usage check")
        monkeypatch.setattr(skein, "homfly", no_homfly)
        code, out, err = run_main([*command, "--max-crossings", limit], capsys)
        assert code == 1
        assert out == "" and "--max-crossings" in err

    def test_zero_strands_is_usage_error(self, capsys):
        code, out, err = run_main(["invariant", "--braid", "n=0;"], capsys)
        assert code == 1
        assert out == "" and "strand count" in err

    def test_crossing_limit_is_computation_error(self, capsys):
        code, _, err = run_main(
            ["invariant", "--braid", TREFOIL, "--max-crossings", "2"], capsys)
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        code, out, _ = run_main(
            ["invariant", "--braid", TREFOIL, "--format", "json",
             "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["writhe"] == 3


@pytest.mark.parametrize("command", [
    ["invariant", "--braid", TREFOIL],
    ["check", "--braid", TREFOIL, "-p", "3"],
    ["batch", "links.csv", "-p", "3"]], ids=["invariant", "check", "batch"])
def test_unwritable_out_is_usage_error(capsys, monkeypatch, tmp_path,
                                       command):
    (tmp_path / "links.csv").write_text(TestBatch.CSV)
    monkeypatch.chdir(tmp_path)
    # open fails on a missing directory; write or close fails on /dev/full.
    targets = [tmp_path / "no-such-dir" / "rep.json"]
    if os.path.exists("/dev/full"):
        targets.append("/dev/full")
    for path in targets:
        code, out, err = run_main([*command, "--out", str(path)], capsys)
        assert code == 1
        assert out == "" and err.startswith(f"error: cannot write {path}")


class FullStdout(io.StringIO):
    """A stdout on a full disk: `method` ("write" or "flush") fails."""

    def __init__(self, method):
        super().__init__()
        self.method = method

    def write(self, text):
        if self.method == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("command", [
    ["invariant", "--braid", TREFOIL],
    ["check", "--braid", TREFOIL, "-p", "3"],
    ["batch", "links.csv", "-p", "3"],
    ["selftest", "--filter", "homfly"]],
    ids=["invariant", "check", "batch", "selftest"])
def test_unwritable_stdout_is_usage_error(capsys, monkeypatch, tmp_path,
                                          command, method):
    (tmp_path / "links.csv").write_text(TestBatch.CSV)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", FullStdout(method))
    code, _, err = run_main(command, capsys)
    assert code == 1
    assert err == ("error: cannot write stdout: "
                   f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", [
    ["check", "--braid", TREFOIL, "-p", "3"], ["selftest"]],
    ids=["check", "selftest"])
def test_buffered_stdout_on_full_disk_exits_1(command):
    # With stdout block-buffered, the bytes of a failed flush stay in the
    # buffer; if the flush at interpreter exit fails on them again, the
    # exit status becomes 120 and a second error is printed.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "linkperiod", *command],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", [["invariant"], ["check", "-p", "3"]],
                         ids=["invariant", "check"])
@pytest.mark.parametrize("given", [
    ["--braid", TREFOIL], ["--braid", "n=3;"], ["--pd", TREFOIL_PD]],
    ids=["braid", "empty-braid", "pd"])
def test_homfly_route_follows_input_type(capsys, monkeypatch, command, given):
    # Every input reaches skein.homfly as a braid together with its own
    # diagram, which the skein fallback runs on: a braid's closure, or the
    # parsed PD code itself rather than the closure of its Vogel braid.
    homfly, parse_pd, seen, parsed = skein.homfly, cli.parse_pd, [], []

    def spy(b, d):
        seen.append((b, d))
        return homfly(b, d)

    def parse_spy(text):
        parsed.append(parse_pd(text))
        return parsed[-1]
    monkeypatch.setattr(skein, "homfly", spy)
    monkeypatch.setattr(cli, "parse_pd", parse_spy)
    code, _, _ = run_main([*command, *given], capsys)
    assert code == 0 and len(seen) == 1
    (b, d), = seen
    assert type(b) is BraidWord and type(d) is PlanarDiagram
    if given[0] == "--pd":
        assert d is parsed[0] and b == vogel.braid_from_pd(d)
    else:
        assert parsed == [] and b == parse_braid(given[1])
        assert d == pd_from_braid(b)


@pytest.fixture
def vogel_reads(monkeypatch):
    """The diagrams vogel.braid_from_pd is called on."""
    braid_from_pd, seen = vogel.braid_from_pd, []

    def spy(d):
        seen.append(d)
        return braid_from_pd(d)
    monkeypatch.setattr(vogel, "braid_from_pd", spy)
    return seen


@pytest.mark.parametrize("argv", [
    ["invariant", "--pd", TREFOIL_PD],
    ["invariant", "--pd", TREFOIL_PD, "--oracle"],
    ["check", "--pd", TREFOIL_PD, "-p", "3"],
    ["batch", "links.csv", "-p", "3"]],
    ids=["invariant", "invariant-oracle", "check", "batch"])
def test_one_vogel_read_per_pd_input(capsys, monkeypatch, tmp_path,
                                     vogel_reads, argv):
    (tmp_path / "links.csv").write_text(
        f'name,input_type,input\ntrefoil,pd,"{TREFOIL_PD}"\n')
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_main(argv, capsys)
    assert code == 0 and "error" not in out
    assert len(vogel_reads) == 1


class TestCrossingLimit:
    """The limit counts the input's crossings and is checked before
    Vogel's algorithm, which is super-linear in the crossing count, reads
    a PD code as a braid."""

    def test_pd_limit(self, capsys, vogel_reads):
        argv = ["invariant", "--pd", TREFOIL_PD, "--max-crossings"]
        assert run_main([*argv, "2"], capsys) == (
            2, "", "computation error: ResourceLimitError: "
            "3 crossings exceed the limit of 2\n")
        assert vogel_reads == []
        assert run_main([*argv, "3"], capsys)[0] == 0
        assert len(vogel_reads) == 1

    @pytest.mark.parametrize("command", [["invariant"], ["check", "-p", "3"]],
                             ids=["invariant", "check"])
    def test_limit_comes_before_planarity(self, capsys, vogel_reads,
                                          command):
        # Exit 2 for the limit, not 1 for the non-planar code.
        for text in NON_PLANAR:
            code, out, err = run_main(
                [*command, "--pd", text, "--max-crossings", "1"], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("computation error: ResourceLimitError: ")
        assert vogel_reads == []

    def test_braid_limit_comes_before_the_closure(self, capsys, monkeypatch):
        closures = []

        def spy(b):
            closures.append(b)
            return pd_from_braid(b)
        monkeypatch.setattr(cli, "pd_from_braid", spy)
        word = " ".join(["1"] * (cli.DEFAULT_MAX_CROSSINGS + 1))
        assert run_main(["check", "-p", "3", "--braid", word], capsys) == (
            2, "", "computation error: ResourceLimitError: "
            "25 crossings exceed the limit of 24\n")
        assert closures == []

    def test_limit_counts_the_diagram_not_its_vogel_braid(self, capsys):
        parts = [BraidWord(2, (1,) * 7), BraidWord(2, (-1,) * 7),
                 BraidWord(2, (1,) * 5), BraidWord(2, (-1,) * 5)]
        d = connected_sum([pd_from_braid(b) for b in parts],
                          random.Random(7400))
        assert len(d.crossings) == cli.DEFAULT_MAX_CROSSINGS
        assert len(vogel.braid_from_pd(d)) > len(d.crossings)
        code, _, err = run_main(["invariant", "--pd", d.pd_text()], capsys)
        assert code == 0, err


@pytest.mark.parametrize("argv, max_work, code, prefix", [
    (["check", "-p", "3", "--braid", " ".join(["1"] * 25)], None, 2,
     "computation error: ResourceLimitError: 25 crossings exceed the limit "
     "of 24"),
    (["invariant", "--oracle", "--braid", TREFOIL], 2, 2,
     "computation error: ResourceLimitError: "),
    (["check", "-p", "16001", "--braid", "1 1"], None, 2,
     "computation error: ResourceLimitError: "),
    (["check", "-p", "3317044064679887385961981", "--braid", TREFOIL], None,
     2, "computation error: ResourceLimitError: "),
    (["check", "-p", "3", "--pd", NON_PLANAR[0]], None, 1,
     "error: this PD code is not planar"),
], ids=["crossings", "state-table", "link-orbits", "prime-test",
        "non-planar"])
def test_every_refusal(capsys, monkeypatch, argv, max_work, code, prefix):
    """Each size limit raises ResourceLimitError and exits 2; a PD code
    with no planar diagram exits 1."""
    if max_work is not None:
        monkeypatch.setattr(laurent, "MAX_WORK", max_work)
    got, out, err = run_main(argv, capsys)
    assert (got, out) == (code, "") and err.startswith(prefix), err


def test_braid_input_never_loads_vogel():
    # vogel is imported on the first PD input only, the skein route on the
    # first braid past skein.HECKE_MAX_TERMS and csv by batch; diagram's
    # value classes need neither dataclasses nor inspect.  Modules loaded
    # before cli (by site) do not count.
    code = ("import sys; before = set(sys.modules); "
            "from linkperiod import cli; "
            "cli.main(['check', '--braid', '1 1 1', '-p', '3', "
            "'--out', sys.argv[1]]); "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code, os.devnull],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "linkperiod.skein" in added
    assert not added & {"dataclasses", "inspect", "csv", "linkperiod.vogel",
                        "linkperiod.skeinroute"}


class TestCheck:
    def test_trefoil_p5_excluded(self, capsys):
        code, out, _ = run_main(
            ["check", "--braid", TREFOIL, "-p", "5", "--format", "json"],
            capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "not-5-periodic"

    def test_trefoil_p3_undecided(self, capsys):
        code, out, _ = run_main(
            ["check", "--braid", TREFOIL, "-p", "3", "--format", "json"],
            capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "undecided"
        qm = rep["criteria"]["quantum-minus"]
        assert qm["possible_linking"] == [1, 2]
        assert rep["combined_candidates"] == [1, 2]

    def test_criteria_subset(self, capsys):
        code, out, _ = run_main(
            ["check", "--braid", TREFOIL, "-p", "3", "--criteria", "jones",
             "--format", "json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert list(rep["criteria"]) == ["jones"]
        assert rep["criteria"]["jones"]["passes"] is True

    def test_link_skips_knot_only(self, capsys):
        code, out, _ = run_main(
            ["check", "--braid", "1 1", "-p", "3", "--format", "json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert "quantum-plus" not in rep["criteria"]
        assert any("knots only" in n for n in rep["notes"])

    def test_composite_p_rejected(self, capsys):
        code, _, err = run_main(
            ["check", "--braid", TREFOIL, "-p", "6"], capsys)
        assert code == 1

    def test_unknown_criterion(self, capsys):
        code, _, _ = run_main(
            ["check", "--braid", TREFOIL, "-p", "3", "--criteria", "nope"],
            capsys)
        assert code == 1

    def test_p2_skips_odd_only(self, capsys):
        # The trefoil T(2,3) has period 2 as well as period 3.
        code, out, _ = run_main(
            ["check", "--braid", TREFOIL, "-p", "2", "--format", "json"],
            capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] != "not-2-periodic"
        assert sorted(rep["criteria"]) == ["alexander", "jones", "quantum-minus"]
        assert rep["notes"] == ["criterion quantum-plus skipped: odd p only",
                                "criterion p0 skipped: odd p only"]

    @pytest.mark.parametrize("criteria", [",,", " "])
    def test_empty_criteria_is_usage_error(self, capsys, criteria):
        code, out, err = run_main(
            ["check", "--braid", TREFOIL, "-p", "3", "--criteria", criteria],
            capsys)
        assert code == 1
        assert out == "" and "--criteria" in err

    def test_repeated_criterion_runs_once(self, capsys):
        # Like --n, --criteria drops a repeated name: each criterion runs
        # once, in the place of its first occurrence.
        def check(criteria, fmt):
            return run_main(["check", "--braid", "1 1", "-p", "3", "--criteria",
                             criteria, "--format", fmt], capsys)

        code, out, _ = check("p0,jones,p0", "text")
        assert code == 0
        assert out.count("note: criterion p0 skipped: knots only") == 1
        assert check("p0,jones,p0", "json") == check("p0,jones", "json")
        assert check("jones,jones", "json") == check("jones", "json")



#: Strings with quotes, backslashes, control characters and non-ASCII
#: text (surrogates included), which json escapes.
STRINGS = st.text(st.sampled_from('"\\/\b\n\t\x00\x1f\x7f '
                                  '\u00e9\u20ac\U0001f600\ud800')
                  | st.characters(), max_size=8)
INTS = st.integers() | st.integers(-1 << 200, 1 << 200)
#: Lists of the shapes the writer formats in one step, and lists that
#: miss a shape by one element: a bool, a str or a wrong length.
SHAPED = (st.lists(INTS) | st.lists(st.lists(INTS, min_size=2, max_size=2))
          | st.lists(st.tuples(st.lists(INTS, min_size=2, max_size=2), INTS)
                     .map(list))
          | st.lists(st.tuples(INTS, st.sampled_from("+-")).map(list))
          | st.lists(st.lists(INTS | st.booleans(), min_size=1, max_size=3))
          | st.lists(st.tuples(st.lists(INTS | st.booleans(), min_size=2,
                                        max_size=3), INTS).map(list)))
LEAVES = (STRINGS | INTS | st.booleans() | st.none()
          | st.floats(allow_nan=False) | SHAPED)
TREES = st.recursive(LEAVES, lambda children: (
    st.lists(children, max_size=4)
    | st.dictionaries(STRINGS, children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=3)
    | st.tuples(children, children)), max_leaves=30)


class TestJsonWriter:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=400)
    @given(TREES)
    def test_equals_json_dumps(self, obj):
        assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize("obj", [
        {}, [], {"a": {}, "b": [], "c": [[]]}, [True, False, None, 1],
        [[1, True]], [[[1, 2], False]], [[[1, True], 2]], [[1, 2, 3]],
        [[1, "+"], [2, "-"]], {"\u00e9\n\"": [-(1 << 100), 0]},
        [1.5, 2], {1: [1, 2], 2: {"x": [[1, 2]]}}, ((1, 2), [3]),
        [[1, "+"], [12, "-"]], [[0, "\u00e9\"%s"]], [[-1, ""]],
        {"passes": True, "x": [False, True], "y": {"z": False}},
        [1, True], ["+", 1], [[1, True], [2, False]], [["+", 1]],
        [[1, "+"], ["-", 2]], [[1, "+"], [2, 3]], [[True, "+"]],
        [[1, "+"], (2, "-")], [[1, "+", 3]],
    ])
    def test_edges(self, obj):
        assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2)


class TestBatch:
    CSV = "name,input_type,input\ntrefoil,braid,1 1 1\nhopf,braid,1 1\nbad,braid,1 x\n"

    def test_report_is_json_dumps(self, capsys, tmp_path):
        # Reports and error rows, a None input among them, byte for byte
        # as json.dumps(..., sort_keys=True, indent=2) writes them.
        path = tmp_path / "links.csv"
        path.write_text(self.CSV + "short,braid\nbare\nodd,knot,1 1 1\n")
        code, out, _ = run_main(["batch", str(path), "-p", "3"], capsys)
        assert code == 0
        reports = json.loads(out)
        assert [r["input"]["value"] for r in reports if "error" in r] == \
            ["1 x", None, None, "1 1 1"]
        assert out == json.dumps(reports, sort_keys=True, indent=2) + "\n"

    def test_batch_reports(self, capsys, tmp_path):
        path = tmp_path / "links.csv"
        path.write_text(self.CSV)
        code, out, _ = run_main(["batch", str(path), "-p", "5"], capsys)
        assert code == 0
        reports = json.loads(out)
        assert [r["name"] for r in reports] == ["trefoil", "hopf", "bad"]
        assert reports[0]["verdict"] == "not-5-periodic"
        assert "error" in reports[2]

    def test_batch_deterministic(self, capsys, tmp_path):
        path = tmp_path / "links.csv"
        path.write_text(self.CSV)
        _, out1, _ = run_main(["batch", str(path), "-p", "3"], capsys)
        _, out2, _ = run_main(["batch", str(path), "-p", "3"], capsys)
        assert out1 == out2

    def test_link_past_the_work_limit_is_a_row_error(self, capsys, tmp_path):
        # At p = 16001 a knot's scan is linear in p, while the Hopf link's
        # search would test C(8000 + 2, 2) orbits; only its row fails.
        path = tmp_path / "links.csv"
        path.write_text("name,input_type,input\ntrefoil,braid,1 1 1\n"
                        "hopf,braid,1 1\nfigure-eight,braid,n=3; 1 -2 1 -2\n")
        code, out, _ = run_main(["batch", str(path), "-p", "16001"], capsys)
        assert code == 0
        trefoil, hopf, figure_eight = json.loads(out)
        assert hopf == {
            "name": "hopf", "input": {"type": "braid", "value": "1 1"},
            "error": "ResourceLimitError: 32012001 orbits to test, "
                     "C(p//2 + m, m) at p=16001, m=2, exceed the work limit "
                     "of 2000000"}
        assert trefoil["verdict"] == figure_eight["verdict"] == \
            "not-16001-periodic"

    def test_bad_header(self, capsys, tmp_path):
        path = tmp_path / "links.csv"
        path.write_text("a,b,c\n1,2,3\n")
        code, _, _ = run_main(["batch", str(path), "-p", "3"], capsys)
        assert code == 1

    @pytest.mark.parametrize("opts", [["-p", "6"],
                                      ["-p", "3", "--criteria", "nope"],
                                      ["-p", "3", "--criteria", ",,"]])
    def test_bad_options_exit_before_rows(self, capsys, tmp_path, opts):
        path = tmp_path / "links.csv"
        path.write_text(self.CSV)
        code, out, err = run_main(["batch", str(path), *opts], capsys)
        assert code == 1
        assert out == "" and "error" in err

    def test_bad_input_type_is_row_error(self, capsys, tmp_path):
        path = tmp_path / "links.csv"
        path.write_text("name,input_type,input\nodd,knot,1 1 1\n"
                        "trefoil,braid,1 1 1\n")
        code, out, _ = run_main(["batch", str(path), "-p", "3"], capsys)
        assert code == 0
        odd, trefoil = json.loads(out)
        assert odd["error"].startswith("UsageError: input_type")
        assert trefoil["verdict"] == "undecided"

    def test_short_row_is_row_error(self, capsys, tmp_path):
        path = tmp_path / "links.csv"
        path.write_text("name,input_type,input\nshort,braid\nbare\n"
                        "trefoil,braid,1 1 1\n")
        code, out, _ = run_main(["batch", str(path), "-p", "3"], capsys)
        assert code == 0
        short, bare, trefoil = json.loads(out)
        assert short["error"] == "UsageError: row has no input field"
        assert bare["error"] == \
            "UsageError: row has no input_type or input field"
        assert trefoil["verdict"] == "undecided"

    def test_extra_field_is_row_error(self, capsys, tmp_path):
        # Unquoted, "1 1,1" is two fields; the row is refused rather than
        # checked as the Hopf link "1 1".
        path = tmp_path / "links.csv"
        path.write_text("name,input_type,input\nt,braid,1 1,1\n"
                        "trefoil,braid,1 1 1\n")
        code, out, _ = run_main(["batch", str(path), "-p", "3"], capsys)
        assert code == 0
        t, trefoil = json.loads(out)
        assert t == {"name": "t", "input": {"type": "braid", "value": "1 1"},
                     "error": "UsageError: row has 4 fields, not 3; quote "
                              "an input that holds commas"}
        assert trefoil["verdict"] == "undecided"

    def test_header_spaces_are_ignored(self, capsys, tmp_path):
        path = tmp_path / "links.csv"
        path.write_text("name, input_type, input\ntrefoil,braid,1 1 1\n")
        code, out, _ = run_main(["batch", str(path), "-p", "3"], capsys)
        assert code == 0
        assert json.loads(out)[0]["verdict"] == "undecided"

    def test_missing_file(self, capsys):
        code, _, _ = run_main(["batch", "/nonexistent.csv", "-p", "3"], capsys)
        assert code == 1

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a byte order mark first.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(self.CSV, encoding="utf-8")
        marked.write_text(self.CSV, encoding="utf-8-sig")
        _, want, _ = run_main(["batch", str(plain), "-p", "5"], capsys)
        code, out, err = run_main(["batch", str(marked), "-p", "5"], capsys)
        assert (code, out, err) == (0, want, "")

    def test_undecodable_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "links.csv"
        path.write_bytes(self.CSV.encode() + b"odd,braid,1 \xff\n")
        code, out, err = run_main(["batch", str(path), "-p", "3"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec")

    def test_oversized_field_is_usage_error(self, capsys, tmp_path):
        # The csv module refuses a field over 131,072 characters.
        path = tmp_path / "links.csv"
        path.write_text(self.CSV + "big,braid," + "1 " * 70000 + "\n")
        code, out, err = run_main(["batch", str(path), "-p", "3"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(
            f"error: cannot read {path}: field larger than field limit")


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_main(["selftest"], capsys)
        assert code == 0
        assert "checks passed" in out

    def test_filter(self, capsys):
        code, out, _ = run_main(["selftest", "--filter", "homfly"], capsys)
        assert code == 0
        assert all(line.startswith("[PASS]") or "checks passed" in line
                   for line in out.strip().splitlines())

    def test_failing_checks_exit_3(self, capsys, monkeypatch):
        from linkperiod import selftest

        def raises():
            raise ValueError("no fixture")

        monkeypatch.setattr(selftest, "_checks", lambda: iter([
            ("fake.passes", lambda: True), ("fake.fails", lambda: False),
            ("fake.raises", raises)]))
        code, out, err = run_main(["selftest"], capsys)
        assert code == 3 and err == ""
        assert out == ("[PASS] fake.passes\n"
                       "[FAIL] fake.fails\n"
                       "[FAIL] fake.raises: ValueError: no fixture\n"
                       "1/3 checks passed\n")

    def test_oracle_check_runs_the_oracle_path(self, capsys, monkeypatch):
        brackets = statemodel.brackets

        def off_at_3(b, ns):
            out = brackets(b, ns)
            out[3] = out[3].shift(2)
            return out
        monkeypatch.setattr(statemodel, "brackets", off_at_3)
        code, out, _ = run_main(["selftest", "--filter", "oracle"], capsys)
        assert code == 3
        assert out == ("[FAIL] oracle.skein-vs-statesum: RuntimeError: "
                       "internal inconsistency: state-sum and Hecke-trace "
                       "routes disagree at N=3\n0/1 checks passed\n")

    def test_filter_matching_nothing_is_a_usage_error(self, capsys):
        code, out, err = run_main(["selftest", "--filter", "zzz"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: --filter matches no check: 'zzz'\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "linkperiod", "invariant", "--braid", TREFOIL,
         "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["writhe"] == 3


def test_no_subcommand_is_usage_error():
    assert cli.main([]) == 1


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["check", "--help"], ["invariant", "--help"], ["bogus"],
    ["check", "--braid", TREFOIL], ["batch"],
    ["check", "--braid", TREFOIL, "-p", "3", "extra"]])
def test_usage_output_matches_the_full_parser(capsys, argv):
    # main shares one parser between calls; a successful check in between
    # must not change what the parser prints.
    got = run_main(argv, capsys)
    assert run_main(["check", "--braid", TREFOIL, "-p", "3"], capsys)[0] == 0
    assert got == run_main(argv, capsys)
    assert got[0] == (0 if "--help" in argv else 1)
    assert got[1] or got[2]


class TestOneParser:
    """main builds the parser once per process and shares it."""

    def test_built_once(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "links.csv").write_text(TestBatch.CSV)
        monkeypatch.chdir(tmp_path)
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def spy(self, **kwargs):
            builds.append(self.prog)
            return add_subparsers(self, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
        cli.build_parser.cache_clear()
        argvs = [
            ["check", "--braid", TREFOIL, "-p", "3"],
            ["check", "--braid", TREFOIL, "-p", "4"],
            ["check", "--braid", TREFOIL, "-p", "+3"],
            ["check", "--pd", TREFOIL_PD, "-p", "5"],
            ["invariant", "--braid", "1 -2 1 -2", "--format", "json"],
            ["invariant", "--braid", TREFOIL, "--oracle", "--n", "0"],
            ["batch", "links.csv", "-p", "3"],
            ["batch", "missing.csv", "-p", "3"],
            ["selftest", "--filter", "zzz"],
            ["selftest", "--help"], ["check", "--help"], ["--help"],
            ["bogus"], [],
        ]
        codes = set()
        for i in range(50):
            codes.add(run_main(argvs[i % len(argvs)], capsys)[0])
        assert builds == ["linkperiod"]
        assert codes == {0, 1}

    def test_out_does_not_stick(self, capsys, tmp_path):
        argv = ["check", "--braid", TREFOIL, "-p", "3", "--format", "json"]
        path = tmp_path / "rep.json"
        assert run_main([*argv, "--out", str(path)], capsys) == (0, "", "")
        code, out, _ = run_main(argv, capsys)
        assert code == 0 and out == path.read_text()

    def test_oracle_does_not_stick(self, capsys, monkeypatch):
        calls = []
        brackets = statemodel.brackets

        def spy(b, ns):
            calls.append(list(ns))
            return brackets(b, ns)
        monkeypatch.setattr(statemodel, "brackets", spy)
        assert run_main(["invariant", "--braid", TREFOIL, "--oracle"],
                        capsys)[0] == 0
        assert run_main(["invariant", "--braid", TREFOIL], capsys)[0] == 0
        assert calls == [[2, 3]]

    @pytest.mark.parametrize("failing", [
        ["check", "--braid", TREFOIL, "-p", "4", "--n", "5"],
        ["check", "--braid", TREFOIL, "-p", "3", "--criteria", "bogus"],
        ["invariant", "--braid", TREFOIL, "--format", "xml"]],
        ids=["not-prime", "bad-criterion", "bad-choice"])
    def test_report_after_a_usage_error(self, capsys, failing):
        argv = ["check", "--braid", TREFOIL, "-p", "5", "--format", "json"]
        cli.build_parser.cache_clear()
        first = run_main(argv, capsys)
        assert first[0] == 0
        assert run_main(failing, capsys)[0] == 1
        assert run_main(argv, capsys) == first


@pytest.mark.parametrize("command", [["invariant"], ["check", "-p", "3"]],
                         ids=["invariant", "check"])
def test_input_value_may_start_with_minus(capsys, command):
    # No space in the word, so argparse alone would read it as an option.
    text = "-1\t-1\t-1"
    code, out, err = run_main([*command, "--braid", text, "--format", "json"],
                              capsys)
    assert code == 0, err
    assert json.loads(out)["input"]["value"] == text
    assert run_main([*command, f"--braid={text}", "--format", "json"],
                    capsys) == (0, out, "")
    code, out, err = run_main([*command, "--pd", "-1"], capsys)
    assert code == 1
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["check", "--braid", TREFOIL, "-p", "\u0663"],
    ["check", "--braid", TREFOIL, "-p", "+3"],
    ["check", "--braid", TREFOIL, "-p", "1_3"],
    ["check", "--braid", TREFOIL, "-p", "3", "--n", "+2,1_0"],
    ["batch", "links.csv", "-p", "3", "--n", "2,\u0663"],
    ["batch", "links.csv", "-p", "3", "--max-crossings", "+24"],
    ["check", "--braid", TREFOIL, "-p", "3", "--max-crossings", "2_4"],
    ["invariant", "--braid", TREFOIL, "--n", "\u0662"],
    ["invariant", "--braid", TREFOIL, "--max-crossings", "\u0662\u0664"],
    ["batch", "links.csv", "-p", "+3"]])
def test_number_options_take_ascii_digits(capsys, argv):
    # int() would take each of these values as a number.
    code, out, err = run_main(argv, capsys)
    assert code == 1
    assert out == "" and argv[-2] in err


@pytest.fixture
def no_skein_route(monkeypatch):
    def no_skein(d):
        raise AssertionError("skein route run on a non-planar code")
    monkeypatch.setattr(skeinroute, "homfly_diagram", no_skein)


@pytest.mark.parametrize("command", [
    ["invariant"], ["invariant", "--oracle"],
    ["check", "-p", "3"], ["check", "-p", "5"], ["check", "-p", "7"]])
def test_non_planar_pd_is_refused(capsys, no_skein_route, command):
    for text in NON_PLANAR:
        code, out, err = run_main([*command, "--pd", text], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "not planar" in err


def test_batch_row_with_non_planar_pd_is_an_error(capsys, no_skein_route,
                                                  tmp_path):
    path = tmp_path / "links.csv"
    path.write_text("name,input_type,input\n" + "".join(
        f'code{i},pd,"{text}"\n' for i, text in enumerate(NON_PLANAR)))
    code, out, _ = run_main(["batch", str(path), "-p", "3"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert [r["name"] for r in reports] == ["code0", "code1"]
    for r in reports:
        assert set(r) == {"name", "input", "error"}
        assert r["error"].startswith("ParseError: ")
        assert "not planar" in r["error"]


@pytest.mark.parametrize("argv", [
    ["check", "--braid", TREFOIL, "-p", "3", "--r", "2"],
    ["batch", "links.csv", "-p", "3", "--r", "1"]])
def test_r_is_an_unknown_option(capsys, argv):
    # Murasugi's test runs at q = p only: "--r" would test period p^r,
    # whose failure does not certify "not p-periodic".
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --r" in err
