"""Value semantics of kcut's records: every one is an immutable
``typing.NamedTuple``, compared and hashed by value."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import kcut
from kcut import Edge, Graph, PackConfig
from kcut.strength import principal_sequence

RECORDS = {
    "graph": ["Edge", "Graph", "VertexPartition"],
    "cuts": ["RespectStats", "EnumerationReport", "RoundResult"],
    "lp": ["PrimalSolution", "DualSolution", "IdealPacking", "PrimalVerdict", "DualVerdict", "CsVerdict"],
    "oracle": ["OracleLimits", "PartitionTable"],
    "packing": ["PackConfig", "TreePacking"],
    "simplex": ["LpResult"],
    "strength": ["AttackResult", "Breakpoint", "PspLevel", "PrincipalSequence"],
    "verify": ["CheckRow"],
}


def _record_classes():
    for info in pkgutil.iter_modules(kcut.__path__):
        module = importlib.import_module(f"kcut.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and hasattr(obj, "_fields"):
                yield info.name, name, obj


PUBLIC = [(module, cls) for module, name, cls in _record_classes() if not name.startswith("_")]


def test_every_record_is_a_named_tuple():
    found: dict[str, list[str]] = {}
    for module, cls in PUBLIC:
        assert issubclass(cls, tuple)
        found.setdefault(module, []).append(cls.__name__)
    assert {m: sorted(names) for m, names in found.items()} == {m: sorted(names) for m, names in RECORDS.items()}


@pytest.mark.parametrize("cls", [cls for _, cls in PUBLIC], ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    record = cls._make([0] * len(cls._fields))  # _make skips validation
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_graph_is_equal_and_hash_equal_by_value():
    a = Graph(2, (Edge(0, 1, Fraction(3, 2)),))
    b = Graph(2, tuple([Edge(0, 1, Fraction(6, 4))]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Graph(2, (Edge(0, 1, Fraction(1)),))
    principal_sequence.cache_clear()
    assert principal_sequence(a) is principal_sequence(b)  # the PSP cache keys on the value


def test_pack_config_normalises_epsilon():
    config = PackConfig(epsilon=0.25)
    assert type(config.epsilon) is Fraction and config.epsilon == Fraction(1, 4)
    assert PackConfig() == PackConfig(Fraction(1, 10))
    with pytest.raises(ValueError, match="epsilon must lie in"):
        PackConfig(epsilon=Fraction(1, 2))
