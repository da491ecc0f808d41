"""A fuzz gate on the command line: every drawn command on every drawn graph
text ends with exit 0 and one JSON document, or with exit 1 or 2 and one
line on stderr, within a wall-clock cap."""

import contextlib
import io
import json
import random
import signal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut.cli import main

from conftest import _random_connected
from test_psp_pin import _text

RUN_CAP_S = 10.0  # wall-clock seconds one run may take

_K = st.one_of(st.integers(2, 4), st.integers(2, 4), st.integers(-1, 8)).map(str)
_RATIONAL = st.sampled_from(["1/10", "1/6", "1/20", "0", "1", "-1/5", "0.05", "3/2", "x", "1e-400"])
_ALPHA = st.sampled_from(["1", "3/2", "2", "0", "-1", "1/0", "y"])


def _flag(name, values):
    """[name, value], or nothing one time in four."""
    given = values.map(lambda v: [name, v])
    return st.one_of(st.just([]), given, given, given)


@st.composite
def _commands(draw):
    """A subcommand with some of its flags, each from a range that spans
    valid and invalid values.  One time in four ``--output json`` comes
    first, so the run goes through the full parser rather than the
    command's own."""
    name = draw(
        st.sampled_from(
            ["strength", "psp", "pack", "lp", "solve", "enumerate", "round", "approx", "mincut", "oracle", "verify"]
        )
    )
    argv = draw(st.sampled_from([[], [], [], ["--output", "json"]])) + [name]
    k = draw(_flag("--k", _K))
    if name == "pack":
        argv += draw(st.sampled_from([[], ["--exact"]]) | _flag("--eps", _RATIONAL))
    elif name in ("lp", "round", "approx"):
        argv += k
    elif name == "solve":
        argv += k + draw(st.just([]) | _flag("--eps", _RATIONAL)) + draw(st.sampled_from([[], ["--all"]]))
    elif name == "enumerate":
        argv += k + draw(_flag("--alpha", _ALPHA))
    elif name == "oracle":
        what = draw(st.sampled_from(["strength", "kcut", "treepack", "lp"]))
        if what in ("strength", "treepack"):  # they refuse a --k
            k = draw(st.sampled_from([[], [], [], ["--k", "2"]]))
        argv += [what] + k + draw(_flag("--max-partitions", st.integers(-1, 14).map(str)))
        argv += draw(_flag("--max-trees", st.integers(-1, 30000).map(str)))
    elif name == "verify":
        argv += draw(_flag("--kmax", _K))
    return argv


_CAPACITY = st.one_of(
    st.integers(0, 9).map(str),
    st.fractions(min_value=0, max_value=20, max_denominator=60).map(str),
    st.sampled_from(["0", "0.25", "1.5", "7/3", "1234567890123456789012345", "1/1234567890123456789012345"]),
)
_MALFORMED = st.sampled_from(
    ["e 1 1 2", "e 0 1 1", "e 1 9 1", "e 1 2", "e 1 2 -3", "e 1 2 1/0", "e a b 1", "p kcut 3 1", "q 1 2 3", "e 1 2 1e999999"]
)


@st.composite
def _graph_texts(draw):
    """Header and edge lines on n <= 7 vertices, most often joined by a
    spanning tree, some isolated, with parallel edges; sometimes a wrong
    edge count, a comment, a blank line or a malformed line."""
    n = draw(st.integers(1, 7))
    pairs = []
    if draw(st.integers(0, 3)):
        pairs += [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    if n >= 2:
        ends = st.tuples(st.integers(1, n), st.integers(1, n - 1))
        pairs += [(u, v + (v >= u)) for u, v in draw(st.lists(ends, max_size=8))]
    lines = [f"e {u} {v} {draw(_CAPACITY)}" for u, v in draw(st.permutations(pairs))]
    m = len(lines) + draw(st.sampled_from([0] * 14 + [-1, 1]))
    if not draw(st.integers(0, 7)):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# comment", ""]) | _MALFORMED))
    return "\n".join([f"p kcut {n} {m}", *lines]) + "\n"


class _Overrun(Exception):
    pass


def _raise_overrun(signum, frame):
    raise _Overrun


def _run(argv, text):
    """(exit code, stdout, stderr) of one run, stopped by ``_Overrun``
    past ``RUN_CAP_S``."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_overrun)
    signal.setitimer(signal.ITIMER_REAL, RUN_CAP_S)
    try:
        with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_commands(), _graph_texts())
def test_every_run_ends_in_json_or_one_diagnostic_line_property(argv, text):
    code, out, err = _run(argv, text)
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        assert code in (1, 2)
        assert len(err.splitlines()) == 1
        assert err.endswith("\n") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["solve", "--k", "8"], ["enumerate", "--k", "6", "--alpha", "3/2"]])
def test_high_k_scans_end_within_the_cap(argv):
    """At k >= n/2 the forest rule (h >= n - p0) lets a layout's pieces
    reach every vertex, up to Bell(14) groupings of one layout; the walk
    over the proper ones still ends in time, with one JSON answer."""
    code, out, err = _run(argv, _text(_random_connected(random.Random(14), 14, 28)))
    assert code == 0 and err == ""
    json.loads(out)
