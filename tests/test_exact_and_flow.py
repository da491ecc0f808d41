from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import contract, parse_rational, rational_str, saturating_pack
from kcut.flow import FlowNetwork

from conftest import flow_network

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


def test_rational_str_always_has_denominator():
    assert rational_str(F(5)) == "5/1"
    assert rational_str(F(-3, 6)) == "-1/2"


def test_max_flow_caps_override(tt):
    caps = [e.cap for e in tt.edges]
    caps[6] = F(10)  # widen the bridge
    assert flow_network(tt, caps).max_flow(0, 5) == 2  # now limited by the triangle boundaries


def test_flow_network_extreme_min_cuts():
    # s=0, a=1, b=2, t=3, and 4 touches nothing; the s-sides {0} and {0, 1}
    # both cut capacity 3, while every side holding b cuts 4
    net = FlowNetwork(5)
    net.add_arc(0, 1, F(1))
    net.add_arc(1, 3, F(1))
    net.add_arc(0, 2, F(2))
    net.add_arc(2, 3, F(3))
    assert net.max_flow(0, 3) == 3
    assert net.residual_reachable(0) == {0}
    assert net.residual_reaching(3) == {2, 3}
    # smallest side: reachable from s; largest: everything not reaching t
    assert set(range(5)) - net.residual_reaching(3) == {0, 1, 4}


@st.composite
def _flow_networks(draw):
    """(n, directed, arcs, s, t): up to 30 vertices, parallel arcs, and int
    or Fraction capacities, zeros included."""
    n = draw(st.integers(2, 30))
    directed = draw(st.booleans())
    if draw(st.booleans()):
        cap = st.integers(0, 9)
    else:
        cap = st.sampled_from([F(0), F(1, 2), F(2, 3), F(1), F(7, 5), F(3)])
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    arcs = draw(st.lists(st.tuples(pair, cap), min_size=n, max_size=4 * n))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return n, directed, arcs, s, t


def _search(n, residual, root, backward):
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in range(n):
            arc = (v, u) if backward else (u, v)
            if v not in seen and residual.get(arc, 0) > 0:
                seen.add(v)
                stack.append(v)
    return seen


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_flow_networks())
def test_flow_network_matches_networkx_property(network):
    n, directed, arcs, s, t = network
    ref = nx.DiGraph() if directed else nx.Graph()
    ref.add_nodes_from(range(n))
    net = FlowNetwork(n)
    for (u, v), c in arcs:
        if ref.has_edge(u, v):
            ref[u][v]["capacity"] += c
        else:
            ref.add_edge(u, v, capacity=c)
        if directed:
            net.add_arc(u, v, c)
        else:
            net.add_undirected(u, v, c)
    value, flow = nx.maximum_flow(ref, s, t)
    # residual capacities of networkx's maximum flow; every maximum flow
    # leaves the same extreme minimum cuts
    residual = {}
    for u, v, c in ref.edges(data="capacity"):
        residual[u, v] = residual.get((u, v), 0) + c
        if not directed:
            residual[v, u] = residual.get((v, u), 0) + c
    for u, out in flow.items():
        for v, f in out.items():
            residual[u, v] -= f
            residual[v, u] = residual.get((v, u), 0) + f
    got = net.max_flow(s, t)
    assert got == value
    if all(isinstance(c, int) for _, c in arcs):
        assert isinstance(got, int)
    assert net.residual_reachable(s) == _search(n, residual, s, False)
    assert net.residual_reaching(t) == _search(n, residual, t, True)


def test_max_flow_same_terminals(e1):
    with pytest.raises(ValueError):
        flow_network(e1).max_flow(0, 0)


def test_contract_rejects_bad_edge_id(e1):
    with pytest.raises(ValueError):
        contract(e1, [5])


def test_attack_rejects_negative_b(e1):
    from kcut import attack

    with pytest.raises(ValueError):
        attack(e1, F(-1))


def test_saturating_expected_value_mismatch(c5):
    from kcut import SaturationError

    with pytest.raises(SaturationError):
        saturating_pack(c5, expected_value=F(2))
