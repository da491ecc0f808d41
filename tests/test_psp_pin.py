"""Pinned attack breakpoints and principal sequences.

``breakpoints`` and every field of ``principal_sequence`` are recorded on the
fixtures and on the inputs where the two meet at b = 0: a disconnected graph
with a zero-capacity bridge inside one component, a connected graph of
strength 0, an isolated vertex, a graph without edges, and a single vertex.
Partitions are written as blocks of vertex digits joined by ``|``.
"""

from fractions import Fraction

import pytest

from kcut import breakpoints, parse_graph, principal_sequence

from conftest import C5_TEXT, E1_TEXT, K4_TEXT, P3_TEXT, TT_TEXT

GRAPHS = {
    "E1": E1_TEXT,
    "C5": C5_TEXT,
    "TT": TT_TEXT,
    "K4": K4_TEXT,
    "P3": P3_TEXT,
    "zero-bridge-disconnected": "p kcut 6 6\ne 1 2 1\ne 2 3 1\ne 1 3 1\ne 3 4 0\ne 5 6 2\ne 5 6 1\n",
    "two-components": "p kcut 4 2\ne 1 2 3\ne 3 4 2\n",
    "strength-zero": "p kcut 4 4\ne 1 2 1\ne 2 3 1\ne 1 3 1\ne 3 4 0\n",
    "isolated-vertex": "p kcut 4 3\ne 1 2 1\ne 2 3 2\ne 1 3 1\n",
    "no-edges": "p kcut 2 0\n",
    "single-vertex": "p kcut 1 0\n",
}

# name: (breakpoints as (b, before, after), p0, levels as
#        (lam, partition, a_edges, b_edges, split_components, kappa))
PINS = {
    "E1": (
        [("5/1", "01", "0|1")],
        "01",
        [
            ("5/1", "0|1", (0,), (0,), "01", 2),
        ],
    ),
    "C5": (
        [("5/4", "01234", "0|1|2|3|4")],
        "01234",
        [
            ("5/4", "0|1|2|3|4", (0, 1, 2, 3, 4), (0, 1, 2, 3, 4), "01234", 5),
        ],
    ),
    "TT": (
        [("1/1", "012345", "012|345"), ("3/2", "012|345", "0|1|2|3|4|5")],
        "012345",
        [
            ("1/1", "012|345", (6,), (6,), "012345", 2),
            ("3/2", "0|1|2|3|4|5", (0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5), "012|345", 6),
        ],
    ),
    "K4": (
        [("2/1", "0123", "0|1|2|3")],
        "0123",
        [
            ("2/1", "0|1|2|3", (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), "0123", 4),
        ],
    ),
    "P3": (
        [("1/1", "012", "0|1|2")],
        "012",
        [
            ("1/1", "0|1|2", (0, 1), (0, 1), "012", 3),
        ],
    ),
    "zero-bridge-disconnected": (
        [("0/1", "012345", "012|3|45"), ("3/2", "012|3|45", "0|1|2|3|45"), ("3/1", "0|1|2|3|45", "0|1|2|3|4|5")],
        "0123|45",
        [
            ("0/1", "012|3|45", (3,), (3,), "0123", 3),
            ("3/2", "0|1|2|3|45", (0, 1, 2, 3), (0, 1, 2), "012", 5),
            ("3/1", "0|1|2|3|4|5", (0, 1, 2, 3, 4, 5), (4, 5), "45", 6),
        ],
    ),
    "two-components": (
        [("0/1", "0123", "01|23"), ("2/1", "01|23", "01|2|3"), ("3/1", "01|2|3", "0|1|2|3")],
        "01|23",
        [
            ("2/1", "01|2|3", (1,), (1,), "23", 3),
            ("3/1", "0|1|2|3", (0, 1), (0,), "01", 4),
        ],
    ),
    "strength-zero": (
        [("0/1", "0123", "012|3"), ("3/2", "012|3", "0|1|2|3")],
        "0123",
        [
            ("0/1", "012|3", (3,), (3,), "0123", 2),
            ("3/2", "0|1|2|3", (0, 1, 2, 3), (0, 1, 2), "012", 4),
        ],
    ),
    "isolated-vertex": (
        [("0/1", "0123", "012|3"), ("2/1", "012|3", "0|1|2|3")],
        "012|3",
        [
            ("2/1", "0|1|2|3", (0, 1, 2), (0, 1, 2), "012", 4),
        ],
    ),
    "no-edges": (
        [("0/1", "01", "0|1")],
        "0|1",
        [],
    ),
    "single-vertex": (
        [],
        "0",
        [],
    ),
}


def _parts(text):
    return tuple(tuple(int(v) for v in block) for block in text.split("|"))


@pytest.mark.parametrize("name", list(GRAPHS))
def test_breakpoints_and_psp_pinned(name):
    g = parse_graph(GRAPHS[name])
    bps, p0, levels = PINS[name]
    assert [(bp.b, bp.before.parts, bp.after.parts) for bp in breakpoints(g)] == [
        (Fraction(b), _parts(before), _parts(after)) for b, before, after in bps
    ]
    psp = principal_sequence(g)
    assert psp.p0.parts == _parts(p0)
    got = [
        (
            level.lam,
            level.partition.parts,
            tuple(sorted(level.a_edges)),
            tuple(sorted(level.b_edges)),
            level.split_components,
            level.kappa,
        )
        for level in psp.levels
    ]
    assert got == [
        (Fraction(lam), _parts(part), a, b, _parts(split), kappa)
        for lam, part, a, b, split, kappa in levels
    ]
