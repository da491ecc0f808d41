from fractions import Fraction

import pytest

from kcut import contract, max_flow_min_cut, parse_rational, rational_str, saturating_pack
from kcut.flow import FlowNetwork

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
    value, _ = max_flow_min_cut(tt, 0, 5, caps)
    assert value == 2  # now limited by the triangle boundaries


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


def test_max_flow_same_terminals(e1):
    with pytest.raises(ValueError):
        max_flow_min_cut(e1, 0, 0)


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
