"""The certificate layer against its rational reference.

``fraction_certificates`` holds the ``Fraction`` versions of the checks that
now run on integer-scaled vectors.  On every k of each graph, both versions
get the closed-form primal and dual and a few broken copies of them (x
halved, x moved off a tight edge, x above 1; the dual packing's weights
doubled or negated, z negated), so every verdict, value and witness string
of every message branch is compared, raised errors included.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_certificates as ref
from kcut import cuts, lp
from kcut.graph import Edge, Graph, crossing_edges, parse_graph
from kcut.strength import principal_sequence

from conftest import C5_TEXT, K4_TEXT, P3_TEXT, TT_TEXT
from test_cuts import _disconnected_multigraphs, _strength_zero_multigraphs
from test_scan_property import _multigraphs


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except (ValueError, AssertionError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def _same(new, old, *args):
    """new(*args) and old(*args) return equal values of the same types, or
    raise the same error with the same message; returns new's outcome."""
    got, want = _outcome(new, *args), _outcome(old, *args)
    assert repr(got) == repr(want), (new.__name__, args)
    return got


def _broken_x(x):
    """x halved, x with its first positive entry moved to its first zero
    entry, and x with 1 added to its first entry."""
    out = [tuple(v / 2 for v in x)]
    pos = next((i for i, v in enumerate(x) if v > 0), None)
    zero = next((i for i, v in enumerate(x) if v == 0), None)
    if pos is not None and zero is not None:
        moved = list(x)
        moved[pos], moved[zero] = 0, x[pos]
        out.append(tuple(moved))
    if x:
        out.append((x[0] + 1,) + tuple(x[1:]))
    return out


def _broken_duals(dual):
    packing = dual.packing
    return [
        dual._replace(packing=packing._replace(weights=tuple(2 * w for w in packing.weights))),
        dual._replace(packing=packing._replace(weights=tuple(-w for w in packing.weights))),
        dual._replace(z=tuple(-v for v in dual.z)),
    ]


def _compare(g):
    """Compare every certificate function with its reference on every k of
    g; returns the messages and witness strings the reference gave."""
    said = []
    psp = principal_sequence(g)
    cuts_of_levels = [crossing_edges(g, level.partition.block_of(g.n)) for level in psp.levels]
    for k in range(2, g.n + 1):
        _same(lp.lagrangean_value, ref.lagrangean_value, psp, k)
        status, primal = _same(lp.lp_primal, ref.lp_primal, psp, k)
        assert status == "ok"
        xs = [primal.x] + _broken_x(primal.x)
        for x in xs:
            status, verdict = _same(lp.verify_primal, ref.verify_primal, g, x, k)
            said.append("primal ok" if verdict.ok else "primal fails")
            status, rounded = _same(cuts.round_lp, ref.round_lp, psp, primal._replace(x=x))
            said.append(rounded if status != "ok" else "rounded")
        status, dual = _same(lp.lp_dual, ref.lp_dual, psp, k)
        if status != "ok":
            said.append(dual)
            continue
        dual = lp.dual_packing(g, dual)
        for d in [dual] + _broken_duals(dual):
            status, verdict = _same(lp.verify_dual, ref.verify_dual, g, d)
            said.extend(verdict.messages)
            for x in xs:
                status, verdict = _same(lp.check_complementary_slackness, ref.check_complementary_slackness, g, x, d)
                said.extend(verdict.witnesses)
            packing = d.packing
            assert repr(packing.total_value) == repr(ref.packing_total_value(packing))
            assert repr(packing.loads()) == repr(ref.packing_loads(packing))
            for cut in cuts_of_levels[:3]:
                for h in range(2 * k - 1):
                    _same(cuts.respect_stats, ref.respect_stats, packing, cut, h)
    return said


def test_every_message_branch_matches_the_reference():
    said = []
    for text in (TT_TEXT, C5_TEXT, K4_TEXT, P3_TEXT, "p kcut 4 2\ne 1 2 3/2\ne 3 4 1\n"):
        said += _compare(parse_graph(text))
    kinds = {s if s in ("primal ok", "primal fails", "rounded") else " ".join(s.split()[:3]) for s in said}
    assert kinds >= {
        "primal ok",
        "primal fails",
        "rounded",
        "x must lie",
        "negative z on",
        "negative weight on",
        "edge 0 overloaded:",
        "z>0 but x<1",
        "support tree (0,",
        "x>0 but load",
    }


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(_multigraphs(), _disconnected_multigraphs(), _strength_zero_multigraphs()))
def test_certificates_match_the_reference_property(g):
    _compare(g)


def test_strength_zero_component_matches_the_reference():
    # both duals read the positive part, the tail after lambda = 0, so each k
    # gets a dual and every certificate passes
    g = Graph(3, (Edge(0, 1, F(1)), Edge(1, 2, F(0))))
    said = _compare(g)
    assert not any("positive capacity" in s for s in said)
    assert "edge 0 overloaded: 2 > 1" in said  # k = 3's doubled packing was checked
    psp = principal_sequence(g)
    for k, value in ((2, 0), (3, 1)):
        dual = lp.dual_packing(g, lp.lp_dual(psp, k))
        assert dual.objective == value and lp.verify_dual(g, dual).ok, k
        assert lp.check_complementary_slackness(g, lp.lp_primal(psp, k).x, dual).ok, k
