"""Frozen `invariant` reports.

Every JSON report of `invariant --n 2,3 --format json` below is pinned by
the SHA-256 of its bytes: knots, whose Jones polynomial is reported in t,
and links of two, three and four components, whose Jones polynomial is
reported in s when the component count is even and in t when it is odd.
The digests and the two text reports were taken from the program while
every polynomial still carried the name of its variable; a changed digest
is a changed report.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest
from test_golden import INPUTS as CHECK_INPUTS

from linkperiod import cli

INPUTS = {**CHECK_INPUTS, "four-chain": ("--braid", "n=4; 1 1 2 2 3 3")}

#: input -> SHA-256 of `invariant --n 2,3 --format json`.
JSON_DIGESTS = {
    "trefoil":
        "0642ab5ba2212026f404a39e8a04407d048d2e10d6beac9075b6b71b3f698b0d",
    "trefoil-pd":
        "2fb873ba51b8c3b1c6ef58c98f8eb49f112296475dfa26cd90f241e1d2712683",
    "figure-eight":
        "c9c1ef5738b323f238584f07e8dd9dbfdbb15917cb2fb7fc81c5145c994d3a89",
    "hopf":
        "eac1d99a6b65f85c80ed0d42709e8717677eea16d0f2b9e171e56e2ba8fb2d98",
    "hopf-chain":
        "b6af2496eb54bf3ce561d086eed4a41163d8a243c2715764fe021e1016b51193",
    "four-chain":
        "188fc4d689578a48bf9f8014bd550110a933586ea3953a5feaa0b7cc343ab2a7",
}

TEXT_REPORTS = {
    "trefoil": (
        'input (braid): 1 1 1\n'
        'components: 1  writhe: 3\n'
        'homfly: 2a^2 + a^2z^2 - a^4\n'
        'quantum N=2: -q^-9 + q^-5 + q^-3 + q^-1\n'
        'quantum N=3: -q^-14 - q^-12 + q^-8 + 2q^-6 + q^-4 + q^-2\n'
        'jones: t + t^3 - t^4\n'
        'alexander: 1 - t + t^2\n'
        'p0: 2a^2 - a^4\n'
    ),
    "hopf": (
        'input (braid): 1 1\n'
        'components: 2  writhe: 2\n'
        'homfly: az^-1 + az - a^3z^-1\n'
        'quantum N=2: q^-6 + q^-4 + q^-2 + 1\n'
        'quantum N=3: q^-10 + 2q^-8 + 2q^-6 + 2q^-4 + q^-2 + 1\n'
        'jones: -s - s^5\n'
    ),
}


def invariant_output(name, extra=()):
    flag, value = INPUTS[name]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["invariant", flag, value, *extra])
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(JSON_DIGESTS))
def test_json_report(name):
    out = invariant_output(name, ["--n", "2,3", "--format", "json"])
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TEXT_REPORTS))
def test_text_report(name):
    assert invariant_output(name) == TEXT_REPORTS[name]
