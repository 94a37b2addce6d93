"""A derandomized fuzz of the command line, in process: whatever the argv, cli.main returns
0, 1 or 2 with no exception and no warning, writes at most one line to stderr unless it is
argparse's usage text, and under --json and exit 0 writes one strict JSON document."""

import contextlib
import io
import json
import warnings

import pytest

from slcurv.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# tokens that may stand for any value or option: empty, non-finite and out-of-range numbers,
# a bare dash, an unknown option, non-ASCII digits (int and float accept them), a long digit
# run that is a small number, and stray commas
MALFORMED = ["", "nan", "1e400", "-", "--x", "١", "٣", "0" * 400 + "2", ",", "1,", ",,", "x1,"]
# per option: (valid values, values out of range); among the valid ones verify-sl --n stays
# <= 3 and --count <= 64, so each run is short
VALUES = {
    "--n": (["2", "3"], ["0", "-1", "1", "9", "9" * 400]),
    "--tol": (["1e-8", "1e-12", "1e-320"], ["0", "-1", "inf"]),
    "--seed": (["0", "42", "9" * 400], ["-1"]),
    "--count": (["1", "64"], ["0", "-3"]),
    "--builtin": (["sl"], ["SL"]),
    "--expr": (["x1^2+x2^2", "x1^2 + x2^2 + x3^2", "1/x1", "x1 + x2"], ["x1^2.5", "x4", "(x1", "x1^" + "9" * 30]),
    "--level": (["1", "4", "25", "-1e5", "1e-300"], ["inf", "9" * 400]),
    "--point": (["1,0", "3,4", "2,0,0", "1,0,0,1", "1,0,0,0,1,0,0,0,1", "1", "-1e5,0"], ["1,,0", "nan,1", "3,inf"]),
}
# each form of each subcommand with its options; --json takes no value
FORMS = [
    ("verify-sl", ("--n", "--tol", "--seed", "--json")),
    ("analyze", ("--builtin", "--n", "--point", "--json")),
    ("analyze", ("--expr", "--level", "--point", "--json")),
    ("sample-image", ("--n", "--count", "--seed")),
    ("report", ("--n",)),
]


@st.composite
def argvs(draw):
    """A subcommand's options, each there three times in four, in any order, with a valid value
    three times in four, and a stray token inserted anywhere one time in four."""

    def often():
        return draw(st.booleans()) or draw(st.booleans())

    command, names = draw(st.sampled_from(FORMS))
    options = []
    for name in names:
        if not often():
            continue
        if name == "--json":
            options.append([name])
            continue
        valid, out_of_range = VALUES[name]
        pool = valid if often() else out_of_range if draw(st.booleans()) else MALFORMED
        options.append([name, draw(st.sampled_from(pool))])
    argv = [command] + [token for option in draw(st.permutations(options)) for token in option]
    if not often():
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(MALFORMED + list(VALUES))))
    return argv


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(argvs())
def test_cli_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    usage = code == 2 and err.startswith("usage:")
    assert err == "" or usage or err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    if code == 0 and "--json" in argv:
        json.loads(out, parse_constant=_reject)
