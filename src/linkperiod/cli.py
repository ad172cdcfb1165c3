"""Command-line front end: invariant computation, periodicity checks,
batch CSV runs, and a built-in fixture selftest.

Exit codes: 0 success (including "undecided"), 1 usage error,
2 computation error, 3 selftest failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from . import __version__, classical, criteria, skein, statemodel
from .diagram import (ParseError, closure_components, parse_braid, parse_pd,
                      pd_from_braid, writhe)
from .laurent import (BiLaurent, LaurentPoly, ResourceLimitError,
                      format_bilaurent, format_poly, is_prime)


#: The most crossings (braid letters) an input may have unless
#: --max-crossings says otherwise.
DEFAULT_MAX_CROSSINGS = 24


class UsageError(ValueError):
    pass


def _cli_input(args) -> tuple[str, str]:
    """(kind, text) of the one --braid / --pd option given."""
    if (args.braid is None) == (args.pd is None):
        raise UsageError("exactly one of --braid and --pd is required")
    return ("braid", args.braid) if args.pd is None else ("pd", args.pd)


def _is_number(text: str) -> bool:
    """ASCII digits, as in braid and PD text, with surrounding whitespace."""
    return re.fullmatch(r"[0-9]+", text.strip()) is not None


def _parse_n_list(text: str) -> list[int]:
    fields = [tok for tok in text.split(",") if tok.strip()]
    if not all(map(_is_number, fields)):
        raise UsageError(f"bad --n list: {text!r}")
    ns = sorted({int(tok) for tok in fields})
    if not ns or any(n < 2 for n in ns):
        raise UsageError("--n needs a comma list of integers >= 2")
    return ns


def _invariants(kind, text, n_list, max_crossings):
    """Parses one input and computes its HOMFLY and its quantum SL(N)
    invariant at each N of n_list.  The crossing limit is checked on the
    parse, before anything is derived from it.  Then the closure diagram
    of every braid within the limit is built, though only the skein
    fallback of `skein.homfly` reads it (ROADMAP item 8 stops building it
    in a benchmark change, as `bench/test_bench.py` asserts time spent in
    `pd_from_braid` on a braid); a PD code is read as a braid by Vogel's
    algorithm, once, which refuses it when it has no planar realization.
    Link facts (components, writhe) are read off the braid.  Returns (the
    report keys every report shares, the braid, HOMFLY, N -> quantum
    invariant)."""
    if kind == "braid":
        braid = parse_braid(text)
        size = len(braid)
    elif kind == "pd":
        diagram = parse_pd(text)
        size = len(diagram.crossings)
    else:
        raise UsageError(f"input_type must be braid or pd: {kind!r}")
    if size > max_crossings:
        raise ResourceLimitError(
            f"{size} crossings exceed the limit of {max_crossings}")
    if kind == "braid":
        diagram = pd_from_braid(braid)
    else:
        # Imported here: a process given only braids never loads it.
        from .vogel import braid_from_pd
        braid = braid_from_pd(diagram)
    P = skein.homfly(braid, diagram)
    m = len(closure_components(braid))
    quantum = {N: skein.quantum_sln(P, N, m) for N in n_list}
    report = {
        "tool": {"name": "linkperiod", "version": __version__},
        "input": {"type": kind, "value": text},
        "components": m,
        "quantum": {str(N): f.serialize() for N, f in quantum.items()},
    }
    return report, braid, P, quantum


def build_invariant_report(kind, text, n_list, oracle=False,
                           max_crossings=DEFAULT_MAX_CROSSINGS) -> dict:
    report, braid, P, quantum = _invariants(kind, text, n_list, max_crossings)
    report["writhe"] = writhe(braid)
    report["homfly"] = P.serialize()
    if oracle:
        states = statemodel.invariant_statesums(braid, n_list)
        for N, inv in quantum.items():
            if states[N] != inv:
                raise RuntimeError(
                    f"internal inconsistency: state-sum and Hecke-trace "
                    f"routes disagree at N={N}")
    # V is in s = sqrt(t), and is reported in t when every exponent is
    # even, as it is for a knot and for any odd number of components.
    variable, V = "s", skein.jones(P).serialize()
    if all(e % 2 == 0 for e, _ in V):
        variable, V = "t", [[e // 2, c] for e, c in V]
    report["jones"] = {"variable": variable, "coeffs": V}
    if report["components"] == 1:
        report["alexander"] = skein.alexander(P).serialize()
        report["p0"] = skein.p0_part(P).serialize()
    return report


# -- periodicity criteria ---------------------------------------------------
#
# Each criterion maps a Context to (report entry, residue sets).  Each set
# holds the residues mod p that the linking number with the axis may take,
# closed under k -> -k; the sets are intersected in order into the combined
# candidates.  An empty list narrows nothing, and a list holding an empty
# set certifies "not p-periodic" (nothing is merged).
# Criteria call the layer functions through their modules at call time,
# so anything that patches a module attribute sees every call.

class Context(NamedTuple):
    P: BiLaurent
    quantum: dict[int, LaurentPoly]     # N -> quantum SL(N) invariant
    p: int
    m: int                              # component count


def _quantum_minus(ctx: Context):
    if ctx.m == 1:
        per_n = {N: criteria.knot_candidates(f, ctx.p, N)
                 for N, f in ctx.quantum.items()}
        linking = criteria.possible_linking(list(per_n.values()))
        entry = {"per_n": {str(N): sorted(s) for N, s in per_n.items()},
                 "possible_linking": sorted(linking)}
        return entry, [linking]
    per_n = {N: criteria.link_candidates(f, ctx.p, N, ctx.m)
             for N, f in ctx.quantum.items()}
    entry = {"per_n": {str(N): sorted(list(t) for t in s)
                       for N, s in per_n.items()}}
    return entry, [frozenset()] if not all(per_n.values()) else []


def _quantum_plus(ctx: Context):
    per_n = {N: criteria.knot_candidates(f, ctx.p, N, plus=True)
             for N, f in ctx.quantum.items()}
    entry = {"per_n": {str(N): sorted(list(e) for e in s)
                       for N, s in per_n.items()}}
    return entry, [frozenset(k % ctx.p for k, _ in s)
                   for s in per_n.values()]


def _jones(ctx: Context):
    ok = classical.traczyk_jones_check(skein.jones(ctx.P), ctx.p)
    return {"passes": ok}, [] if ok else [frozenset()]


def _p0(ctx: Context):
    lams = classical.traczyk_p0_candidates(skein.p0_part(ctx.P), ctx.p)
    return {"candidates": sorted(lams)}, [lams]


def _alexander(ctx: Context):
    lams = classical.murasugi_candidates(skein.alexander(ctx.P), ctx.p)
    # "r": 1 says the test ran at q = p^1; reports keep the key.  Unlike
    # the other criteria's sets, the lambdas are not closed under k -> -k.
    closed = frozenset(x for k in lams for x in (k % ctx.p, -k % ctx.p))
    return {"r": 1, "candidates": sorted(lams)}, [closed]


class Criterion(NamedTuple):
    knots_only: bool
    odd_p_only: bool
    run: Callable[[Context], tuple[dict, list[frozenset]]]


#: Every criterion, in the default order of `--criteria`.
CRITERIA = {
    "quantum-minus": Criterion(False, False, _quantum_minus),
    "quantum-plus": Criterion(True, True, _quantum_plus),
    "jones": Criterion(False, False, _jones),
    "p0": Criterion(True, True, _p0),
    "alexander": Criterion(True, False, _alexander),
}
ALL_CRITERIA = tuple(CRITERIA)


def _check_options(args) -> tuple[list[int], list[str]]:
    """Validates the options `check` and `batch` share; returns the N list
    and the criteria to run."""
    n_list = _parse_n_list(args.n)
    names = [c.strip() for c in args.criteria.split(",") if c.strip()]
    if not names:
        raise UsageError(f"--criteria names no criterion: {args.criteria!r}")
    for name in names:
        if name not in CRITERIA:
            raise UsageError(f"unknown criterion: {name}")
    if not is_prime(args.p):
        raise UsageError(f"p must be prime: {args.p}")
    return n_list, list(dict.fromkeys(names))    # a repeated name runs once


def build_check_report(kind, text, p, n_list, names,
                       max_crossings=DEFAULT_MAX_CROSSINGS) -> dict:
    """Parses one input and runs the named criteria on it in order; p and
    the names must have passed `_check_options`."""
    report, _, P, quantum = _invariants(kind, text, n_list, max_crossings)
    m = report["components"]
    report.update(p=p, n_list=n_list, criteria={}, notes=[])
    ctx = Context(P, quantum, p, m)
    excluded = False          # some criterion certified non-periodicity
    combined: frozenset[int] | None = None
    for name in names:
        crit = CRITERIA[name]
        if crit.knots_only and m != 1:
            report["notes"].append(f"criterion {name} skipped: knots only")
            continue
        if crit.odd_p_only and p == 2:
            report["notes"].append(f"criterion {name} skipped: odd p only")
            continue
        report["criteria"][name], residue_sets = crit.run(ctx)
        if not all(residue_sets):
            excluded = True
            continue
        for s in residue_sets:
            combined = s if combined is None else combined & s
    if combined is not None:
        report["combined_candidates"] = sorted(combined)
        excluded = excluded or not combined
    report["verdict"] = f"not-{p}-periodic" if excluded else "undecided"
    return report


def _render_text(report: dict, out) -> None:
    print(f"input ({report['input']['type']}): {report['input']['value']}", file=out)
    if "homfly" in report:
        print(f"components: {report['components']}  writhe: {report['writhe']}", file=out)
        print(f"homfly: {format_bilaurent(report['homfly'])}", file=out)
    for N, pairs in sorted(report["quantum"].items(), key=lambda kv: int(kv[0])):
        print(f"quantum N={N}: {format_poly(pairs, 'q')}", file=out)
    if "jones" in report:
        j = report["jones"]
        print(f"jones: {format_poly(j['coeffs'], j['variable'])}", file=out)
    if "alexander" in report:
        print(f"alexander: {format_poly(report['alexander'], 't')}", file=out)
    if "p0" in report:
        print(f"p0: {format_poly(report['p0'], 'a')}", file=out)
    for name, entry in report.get("criteria", {}).items():
        print(f"criterion {name}: {json.dumps(entry, sort_keys=True)}", file=out)
    if "combined_candidates" in report:
        print(f"combined candidates: {report['combined_candidates']}", file=out)
    if "verdict" in report:
        print(f"verdict: {report['verdict']}", file=out)
    for note in report.get("notes", []):
        print(f"note: {note}", file=out)


def _write(text: str, path: str | None = None) -> None:
    """Writes text to the file at path, or to stdout when there is no
    path.  Failing to open, write, flush or close (a full disk, a missing
    directory) is a usage error, not a failed computation."""
    try:
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not path:
            _drop_stdout()
        raise UsageError(f"cannot write {path or 'stdout'}: {exc}") from None


def _drop_stdout() -> None:
    """Points stdout's file descriptor at devnull.  A failed flush keeps
    the unwritten bytes in stdout's buffer, and the flush at interpreter
    exit would fail on them again and turn the exit status into 120 (the
    SIGPIPE note of the `signal` docs); devnull takes them instead.  A
    stdout with no file descriptor, such as a StringIO, is left as is."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _is_ints(values) -> bool:
    return {*map(type, values)} == {int}


def _is_pairs(values) -> bool:
    return {*map(type, values)} == {list} and {*map(len, values)} == {2}


def _int_lists(obj: list, inner: str):
    """(the format of one item, the values of all items in order) when obj
    is a list of ints, of [int, int] pairs (`LaurentPoly.serialize`), of
    [int, str] pairs (quantum-plus hits) or of [[int, int], int] terms
    (`BiLaurent.serialize`), with its items on lines that inner starts;
    else None.  Types are checked exactly, so a bool is no int."""
    cell = inner + "  "
    if _is_ints(obj):
        return "%d", tuple(obj)
    if not _is_pairs(obj):
        return None
    flat = [*itertools.chain.from_iterable(obj)]
    if _is_ints(flat):
        return f"[{cell}%d,{cell}%d{inner}]", tuple(flat)
    keys, values = flat[::2], flat[1::2]
    if _is_ints(keys) and {*map(type, values)} == {str}:
        pairs = zip(keys, map(encode_basestring_ascii, values))
        return (f"[{cell}%d,{cell}%s{inner}]",
                tuple(itertools.chain.from_iterable(pairs)))
    if not (_is_ints(values) and _is_pairs(keys)):
        return None
    exps = [*itertools.chain.from_iterable(keys)]
    if not _is_ints(exps):
        return None
    key = cell + "  "
    return (f"[{cell}[{key}%d,{key}%d{cell}],{cell}%d{inner}]",
            tuple(itertools.chain.from_iterable(
                zip(exps[::2], exps[1::2], values))))


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for a
    value on a line that pad starts (a newline and the indentation).
    Strs, ints and bools (types checked exactly), lists and dicts with
    str keys are written here, and the lists of `_int_lists` by one
    format string; any other value, None among them, goes to json.dumps."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return "%d" % obj
    if kind is bool:
        return "true" if obj else "false"
    inner = pad + "  "
    if kind is list:
        ints = _int_lists(obj, inner)
        if ints:
            fmt, values = ints
            body = ("," + inner).join([fmt] * len(obj)) % values
            return f"[{inner}{body}{pad}]"
        items, ends = [_json(x, inner) for x in obj], "[]"
    elif kind is dict and {*map(type, obj)} <= {str}:
        items = [encode_basestring_ascii(k) + ": " + _json(obj[k], inner)
                 for k in sorted(obj)]
        ends = "{}"
    else:
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def _emit(report, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        payload = _json(report) + "\n"
    else:
        buf = io.StringIO()
        _render_text(report, buf)
        payload = buf.getvalue()
    _write(payload, out_path)


def cmd_invariant(args) -> int:
    kind, text = _cli_input(args)
    report = build_invariant_report(kind, text, _parse_n_list(args.n),
                                    args.oracle, args.max_crossings)
    _emit(report, args.format, args.out)
    return 0


def cmd_check(args) -> int:
    kind, text = _cli_input(args)
    n_list, names = _check_options(args)
    report = build_check_report(kind, text, args.p, n_list, names,
                                args.max_crossings)
    _emit(report, args.format, args.out)
    return 0


#: The header of a batch CSV, and the fields of each row, by position.
BATCH_FIELDS = ("name", "input_type", "input")


def cmd_batch(args) -> int:
    import csv      # imported here: only batch reads a CSV
    n_list, names = _check_options(args)
    # utf-8-sig drops the byte order mark that spreadsheets write first.
    try:
        with open(args.csv, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            if [f.strip() for f in next(reader, [])] != list(BATCH_FIELDS):
                raise UsageError(
                    'batch CSV needs the header "name,input_type,input"')
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot read {args.csv}: {exc}") from None
    reports = []
    for row in rows:
        name, kind, text = (row + [None, None])[:3]
        try:
            if len(row) > 3:
                raise UsageError(f"row has {len(row)} fields, not 3; quote "
                                 "an input that holds commas")
            if len(row) < 3:
                missing = " or ".join(BATCH_FIELDS[len(row):])
                raise UsageError(f"row has no {missing} field")
            rep = build_check_report(kind.strip(), text, args.p, n_list,
                                     names, args.max_crossings)
            rep["name"] = name
            reports.append(rep)
        except Exception as exc:
            reports.append({
                "name": name,
                "input": {"type": kind, "value": text},
                "error": f"{type(exc).__name__}: {exc}",
            })
    _emit(reports, "json", args.out)
    return 0


def cmd_selftest(args) -> int:
    from . import selftest
    results = selftest.run(name_filter=args.filter)
    if not results:
        raise UsageError(f"--filter matches no check: {args.filter!r}")
    lines = [f"[{'PASS' if ok else 'FAIL'}] {name}" +
             (f": {detail}" if detail else "") for name, ok, detail in results]
    failed = sum(1 for _, ok, _ in results if not ok)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _write("".join(line + "\n" for line in lines))
    return 3 if failed else 0


def _number(text: str) -> int:
    if not _is_number(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _number(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return value


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    arguments: tuple[str, ...]


#: Every subcommand, in `--help` order, with the arguments it takes.
COMMANDS = {
    "invariant": Command(cmd_invariant, "compute link invariants", (
        "--braid", "--pd", "--n", "--max-crossings", "--out", "--format",
        "--oracle")),
    "check": Command(cmd_check, "run periodicity criteria", (
        "--braid", "--pd", "--n", "-p", "--criteria", "--max-crossings",
        "--out", "--format")),
    "batch": Command(cmd_batch, "run checks over a CSV of links", (
        "csv", "-p", "--n", "--criteria", "--max-crossings", "--out")),
    "selftest": Command(cmd_selftest, "run the built-in fixture suite", (
        "--filter",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built by the first `main` call and
    shared by all later ones in the process.  Sharing it is sound because
    `parse_args` only reads the parser: it fills a new Namespace on each
    call, and every default is immutable (a str, an int, False, None or
    the command function), so no call can see another's options."""
    ap = argparse.ArgumentParser(
        prog="linkperiod",
        description="Quantum-invariant periodicity criteria for links")
    sub = ap.add_subparsers(dest="command", required=True)
    options = {
        "--braid": dict(help='braid word, e.g. "1 1 1" or "n=3; 1 -2"'),
        "--pd": dict(help='PD code, e.g. "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"'),
        "--n": dict(default="2,3", help="comma list of N values (default 2,3)"),
        "-p": dict(type=_number, required=True, help="prime period to test"),
        "--criteria": dict(default=",".join(ALL_CRITERIA),
                           help="comma list of criteria to run"),
        "--max-crossings": dict(type=_positive_int,
                                default=DEFAULT_MAX_CROSSINGS),
        "--out": dict(help="write the report to this path"),
        "--format": dict(choices=("json", "text"), default="text"),
        "--oracle": dict(action="store_true", help="cross-check the quantum "
                         "invariant of the Hecke-trace HOMFLY against the "
                         "state sum"),
        "csv": dict(help='CSV with header "name,input_type,input"'),
        "--filter": dict(default="",
                         help="run only checks whose name contains this"),
    }

    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for arg in cmd.arguments:
            sp.add_argument(arg, **options[arg])
        sp.set_defaults(func=cmd.run)
    return ap


def _join_input_values(argv: list[str]) -> list[str]:
    """argparse reads a word that starts with "-" and holds no space, such
    as a tab-separated negative braid, as an option; so --braid and --pd
    take a next word that starts with "-" and a digit as their value."""
    joined: list[str] = []
    for word in argv:
        if joined and joined[-1] in ("--braid", "--pd") and \
                re.match(r"-[0-9]", word):
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def main(argv=None) -> int:
    argv = _join_input_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
