from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import parse_rational, rational_str
from kcut.flow import FlowNetwork

from conftest import flow_network, residual_side

F = Fraction


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational("7/3") == F(7, 3)
    with pytest.raises(ValueError):
        parse_rational("-1")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_parse_rational_bounds_the_exponent():
    assert parse_rational("1e1000") == 10**1000
    assert parse_rational("2.5E-1_000") == F(5, 2 * 10**1000)
    for text in ["1e1001", "1e-10000000", "1e" + "9" * 5000]:
        with pytest.raises(ValueError, match="exponent beyond|not a rational"):
            parse_rational(text)


def test_parse_rational_bounds_the_digits():
    assert parse_rational("9" * 2000) == 10**2000 - 1
    assert parse_rational("1/" + "9" * 2000) == F(1, 10**2000 - 1)
    for text in ["1" + "0" * 4000 + "e1000", "9" * 2001, "1/" + "9" * 2001, "0." + "0" * 1500 + "1e-600"]:
        with pytest.raises(ValueError, match="beyond 2000 digits"):
            parse_rational(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def _fraction_route(text):
    """``parse_rational`` of a token with no exponent and no sign as it was
    before the integer fast path: ``Fraction(text)``, then the digit bound."""
    try:
        value = F(text)
    except ValueError:
        return f"not a rational number: {text!r}"
    if value >= 10**2000:
        return "numerator or denominator beyond 2000 digits"
    return value


@st.composite
def _digit_tokens(draw):
    """ASCII digit strings with leading zeros, a random head and a long
    repeated tail, so their lengths cross both 2000 and 4300 digits."""
    zeros = "0" * draw(st.sampled_from([0, 1, 3, 2500, 4400]))
    head = draw(st.text("0123456789", min_size=0, max_size=12))
    tail = draw(st.sampled_from("0123456789")) * draw(st.sampled_from([0, 1, 1999, 2000, 4299, 4301]))
    return (zeros + head + tail) or "0"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_digit_tokens())
def test_integer_fast_path_matches_the_fraction_route(text):
    got = _outcome(parse_rational, text)
    assert got == _fraction_route(text)
    assert type(got) in (F, str)


@pytest.mark.parametrize("text", ["١٢", "٠٠٧", "²", "١٢/٣"])
def test_non_ascii_digits_take_the_fraction_route(text):
    assert _outcome(parse_rational, text) == _fraction_route(text)


def test_rational_str_always_has_denominator():
    assert rational_str(F(5)) == "5/1"
    assert rational_str(F(-3, 6)) == "-1/2"


def test_max_flow_caps_override(tt):
    caps = [e.cap for e in tt.edges]
    caps[6] = F(10)  # widen the bridge
    assert flow_network(tt, caps).max_flow(0, 5)[0] == 2  # now limited by the triangle boundaries


def test_flow_network_extreme_min_cuts():
    # s=0, a=1, b=2, t=3, and 4 touches nothing; the s-sides {0} and {0, 1}
    # both cut capacity 3, while every side holding b cuts 4
    net = FlowNetwork(5)
    net.add_arc(0, 1, F(1))
    net.add_arc(1, 3, F(1))
    net.add_arc(0, 2, F(2))
    net.add_arc(2, 3, F(3))
    # the smallest side: reachable from s
    assert net.max_flow(0, 3) == (3, {0}) and residual_side(net, 0) == {0}


_INT_CAPS = st.integers(0, 9)
_FRACTION_CAPS = st.sampled_from([F(0), F(1, 2), F(2, 3), F(1), F(7, 5), F(3)])


@st.composite
def _flow_networks(draw):
    """(n, directed, arcs, s, t): up to 30 vertices, parallel arcs, and int
    or Fraction capacities, zeros included.  Arcs are (u, v, cap, rev_cap),
    with rev_cap = cap for an undirected network and 0 for a directed one."""
    n = draw(st.integers(2, 30))
    directed = draw(st.booleans())
    cap = _INT_CAPS if draw(st.booleans()) else _FRACTION_CAPS
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    arcs = [
        (u, v, c, 0 if directed else c)
        for (u, v), c in draw(st.lists(st.tuples(pair, cap), min_size=n, max_size=4 * n))
    ]
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return n, directed, arcs, s, t


@st.composite
def _short_path_networks(draw):
    """Like ``_flow_networks``, but rich in the paths of one to three arcs
    that ``max_flow`` saturates before its first search: many arcs s->v and
    v->t, parallel arcs into t, arcs leaving t, arcs back into s, direct s->t
    arcs and nonzero reverse capacities, in a drawn order."""
    n = draw(st.integers(3, 12))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    mid = st.sampled_from([v for v in range(n) if v not in (s, t)])
    anyv = st.integers(0, n - 1)
    cap = _INT_CAPS if draw(st.booleans()) else _FRACTION_CAPS
    rev = st.one_of(st.just(0), cap)
    ends = (
        draw(st.lists(st.tuples(st.just(s), mid), min_size=1, max_size=2 * n))
        + draw(st.lists(st.tuples(mid, st.just(t)), min_size=1, max_size=2 * n))
        + draw(st.lists(st.tuples(mid, mid), max_size=2 * n))
        + draw(st.lists(st.tuples(st.just(t), anyv), max_size=3))
        + draw(st.lists(st.tuples(anyv, st.just(s)), max_size=3))
        + draw(st.lists(st.just((s, t)), max_size=2))
    )
    arcs = [(u, v, draw(cap), draw(rev)) for u, v in ends if u != v]
    return n, True, draw(st.permutations(arcs)), s, t


def _search(n, residual, root):
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in range(n):
            if v not in seen and residual.get((u, v), 0) > 0:
                seen.add(v)
                stack.append(v)
    return seen


def _assert_max_flow_matches_networkx(network):
    """The value and the smallest minimum cut equal those of a networkx
    maximum flow, and a second ``max_flow`` finds nothing left to push."""
    n, directed, arcs, s, t = network
    ref = nx.DiGraph()
    ref.add_nodes_from(range(n))
    net = FlowNetwork(n)
    for u, v, c, r in arcs:
        for a, b, w in ((u, v, c), (v, u, r)):
            if ref.has_edge(a, b):
                ref[a][b]["capacity"] += w
            else:
                ref.add_edge(a, b, capacity=w)
        if directed:
            net.add_arc(u, v, c, r)
        else:
            net.add_arc(u, v, c, c)
    value, flow = nx.maximum_flow(ref, s, t)
    # residual capacities of networkx's maximum flow; every maximum flow
    # leaves the same smallest minimum cut
    residual = {(u, v): c for u, v, c in ref.edges(data="capacity")}
    for u, out in flow.items():
        for v, f in out.items():
            residual[u, v] -= f
            residual[v, u] += f
    got, source_side = net.max_flow(s, t)
    assert got == value
    # every push moved capacity between an arc and its reverse
    residual_pairs = [net.cap[2 * i] + net.cap[2 * i + 1] for i in range(len(arcs))]
    assert residual_pairs == [c + r for _, _, c, r in arcs]
    if all(isinstance(c, int) and isinstance(r, int) for _, _, c, r in arcs):
        assert isinstance(got, int)
    assert source_side == residual_side(net, s) == _search(n, residual, s)
    # the side's cut, taken over the input capacities, is the value
    assert sum(c for u, v, c, _ in arcs if u in source_side and v not in source_side) + sum(
        r for u, v, _, r in arcs if v in source_side and u not in source_side
    ) == value
    assert net.max_flow(s, t) == (0, source_side)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_flow_networks())
def test_flow_network_matches_networkx_property(network):
    _assert_max_flow_matches_networkx(network)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_short_path_networks())
def test_short_path_preflow_matches_networkx_property(network):
    _assert_max_flow_matches_networkx(network)


@st.composite
def _sweep_network_changes(draw):
    """(n, s, t, arcs, changed): an int network on up to 7 nodes with an arc
    out of s, and the changes that the attack sweep's step network makes
    to the contracted network, one at a time and all together: an arc out
    of s split into two parallel arcs, zero-capacity arcs added, and arcs
    with capacity into s or out of t added, each at a drawn place."""
    n = draw(st.integers(2, 7))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    arcs = [(s, draw(node.filter(lambda v: v != s)), draw(_INT_CAPS), 0)]
    arcs += [(u, v, draw(_INT_CAPS), draw(st.just(0) | _INT_CAPS)) for u, v in draw(st.lists(pair, max_size=3 * n))]
    arcs = draw(st.permutations(arcs))

    def inserted(base, new_arcs):
        out = list(base)
        for arc in new_arcs:
            out.insert(draw(st.integers(0, len(out))), arc)
        return out

    i = draw(st.sampled_from([i for i, arc in enumerate(arcs) if arc[0] == s]))
    u, v, c, r = arcs[i]
    part = draw(st.integers(0, c))
    split = inserted(arcs[:i] + [(u, v, part, r)] + arcs[i + 1 :], [(u, v, c - part, 0)])
    zeros = [(u, v, 0, 0) for u, v in draw(st.lists(pair, min_size=1, max_size=n))]
    dead_end = st.one_of(
        st.tuples(node.filter(lambda x: x != s), st.just(s)), st.tuples(st.just(t), node.filter(lambda x: x != t))
    )
    dead = [(u, v, draw(st.integers(1, 9)), 0) for u, v in draw(st.lists(dead_end, min_size=1, max_size=n))]
    changed = [split, inserted(arcs, zeros), inserted(arcs, dead), inserted(split, zeros + dead)]
    return n, s, t, arcs, changed


def _flow(n, arcs, s, t):
    net = FlowNetwork(n)
    for u, v, c, r in arcs:
        net.add_arc(u, v, c, r)
    return net.max_flow(s, t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sweep_network_changes())
def test_sweep_network_changes_keep_value_and_side_property(case):
    """Parallel arcs add, a zero-capacity arc carries nothing, and an arc
    into s or out of t lies on no s-t path and moves no cut: none of them
    moves ``max_flow``'s value or its smallest minimum-cut side."""
    n, s, t, arcs, changed = case
    want = _flow(n, arcs, s, t)
    for variant in changed:
        assert _flow(n, variant, s, t) == want


def test_preflow_path_cancelled_by_edmonds_karp():
    # s=0, a=1, b=2, c=3, d=4, t=5.  The pre-flow pushes s->a->b->t first,
    # which takes the only sink arc that s->d->b can reach, and a->c->t is
    # then cut off from s.  The maximum flow needs the reverse arc b->a:
    # Edmonds-Karp augments s->d->b->a->c->t and cancels the flow on a->b.
    net = FlowNetwork(6)
    arcs = [(0, 1), (1, 2), (2, 5), (0, 4), (4, 2), (1, 3), (3, 5)]
    for u, v in arcs:
        net.add_arc(u, v, 1)
    assert net.max_flow(0, 5) == (2, {0})
    flows = {arc: 1 - net.cap[2 * i] for i, arc in enumerate(arcs)}
    assert flows == {(0, 1): 1, (1, 2): 0, (2, 5): 1, (0, 4): 1, (4, 2): 1, (1, 3): 1, (3, 5): 1}
    assert residual_side(net, 0) == {0}


def test_max_flow_same_terminals(e1):
    with pytest.raises(ValueError):
        flow_network(e1).max_flow(0, 0)


def test_attack_rejects_negative_b(e1):
    from kcut import attack

    with pytest.raises(ValueError):
        attack(e1, F(-1))
