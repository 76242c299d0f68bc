"""The CLI exit-code contract over drawn argument lists.

Every invocation of `bounds`, `construct`, `search` (n <= 6) and
`analyze` (a few stdin lines) must end with an exit code in
{0, 2, 3, 4, 5} and never show a traceback; a rejected parameter
(exit 2) leaves stdout empty, and a `search` that exits 0 had at least
one vertex at the low end of its size range.  `bounds -d/-w` and
`search -n` are drawn as a value N or a range LO:HI; `-n` is also
drawn joined as `-n=LO:HI`, the one spelling that lets a negative LO
past argparse.  `verify` is left out: one call takes seconds.
"""

import contextlib
import io
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from cdt.cli import build_parser, main

CONTRACT = {0, 2, 3, 4, 5}

garbage = st.sampled_from(["x", "", "1.5", "3:2", "--json", "-"])


def _flag(name: str, value):
    """`name value`, present three times in four."""
    pair = value.map(lambda v: [name, str(v)])
    return st.one_of(pair, pair, pair, st.just([]))


def _switch(name: str):
    return st.sampled_from([[], [name]])


def _value_or_range(hi: int):
    """`N` or `LO:HI`, each number in -2..hi and LO <= HI."""
    pair = st.tuples(st.integers(-2, hi), st.integers(-2, hi)).map(sorted)
    return st.one_of(st.integers(-2, hi), pair.map(lambda p: f"{p[0]}:{p[1]}"))


def _argv(head, *parts):
    """``head`` and the parts' tokens; one draw in four has one token
    after the command replaced by something that is not a number."""
    tokens = st.tuples(*parts).map(lambda ps: head + [tok for p in ps for tok in p])
    spoil = st.one_of(st.none(), st.none(), st.none(), st.tuples(st.integers(0, 30), garbage))

    def apply(drawn):
        argv, bad = drawn
        if bad is not None and len(argv) > 1:
            argv[1 + bad[0] % (len(argv) - 1)] = bad[1]
        return argv

    return st.tuples(tokens, spoil).map(apply)


ints = st.integers(-3, 12)
bounds_argv = _argv(
    ["bounds"], ints.map(lambda v: ["-t", str(v)]), _flag("-d", _value_or_range(12)),
    _flag("-w", _value_or_range(12)), _switch("--json"),
)
construct_argv = _argv(
    ["construct"], st.sampled_from(["turan", "lbg", "bt", "gstar"]).map(lambda k: [k]),
    st.lists(st.integers(-2, 7).map(str), max_size=3),
)
search_argv = _argv(
    ["search"],
    _value_or_range(6).flatmap(lambda n: st.sampled_from([["-n", str(n)], [f"-n={n}"]])),
    st.integers(-1, 7).map(lambda v: ["-d", str(v)]),
    st.integers(-1, 8).map(lambda v: ["-w", str(v)]),
    st.integers(-1, 8).map(lambda v: ["-t", str(v)]),
    _flag("--threads", st.integers(-1, 2)), _flag("--max-n", st.integers(-1, 8)),
    _switch("--json"),
)
analyze_argv = _argv(
    ["analyze"], _flag("-t", ints), _flag("-d", ints), _flag("-w", ints), _switch("--json"),
)
graph6_line = st.one_of(
    st.sampled_from(["", "@", "Bw", "C^", "D]{", "E]~o", "FFz~o", "B!", "~"]),
    st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=5),
)
stdin_text = st.lists(graph6_line, max_size=3).map(lambda ls: "".join(line + "\n" for line in ls))


def _run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def _check(argv, stdin_text=""):
    code, out, err = _run(argv, stdin_text)
    assert code in CONTRACT, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert out == "", (argv, out)
        if err.startswith("error: "):
            assert err.count("\n") == 1, (argv, err)
    return code


contract = settings(
    derandomize=True, deadline=None, max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)


@contract
@given(st.one_of(bounds_argv, construct_argv))
def test_bounds_and_construct_keep_the_exit_code_contract(argv):
    _check(argv)


@contract
@given(search_argv)
def test_search_keeps_the_exit_code_contract(argv):
    if _check(argv) == 0:
        assert build_parser().parse_args(argv).n[0] >= 1, argv


@contract
@given(analyze_argv, stdin_text)
def test_analyze_keeps_the_exit_code_contract(argv, text):
    _check(argv, text)
