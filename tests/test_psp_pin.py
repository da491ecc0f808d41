"""Pinned attack breakpoints and principal sequences.

``breakpoints`` and every field of ``principal_sequence`` are recorded on the
fixtures and on the inputs where the two meet at b = 0: a disconnected graph
with a zero-capacity bridge inside one component, a connected graph of
strength 0, an isolated vertex, a graph without edges, and a single vertex.
Partitions are written as blocks of vertex digits joined by ``|``.

Above the fixtures, the SHA-256 of the ``psp`` and ``strength`` output is
pinned on a ladder of random graphs (n = 18 to 40) and on K16 and C16.
"""

import hashlib
import io
import random
from fractions import Fraction

import pytest

from kcut import Edge, Graph, breakpoints, parse_graph, principal_sequence
from kcut.cli import main

from conftest import C5_TEXT, E1_TEXT, K4_TEXT, P3_TEXT, TT_TEXT, _random_connected

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
    psp = principal_sequence(g)
    assert [(bp.b, bp.before.parts, bp.after.parts) for bp in breakpoints(psp)] == [
        (Fraction(b), _parts(before), _parts(after)) for b, before, after in bps
    ]
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


def _text(g):
    return f"p kcut {g.n} {g.m}\n" + "".join(f"e {e.u + 1} {e.v + 1} {e.cap}\n" for e in g.edges)


def _ladder():
    """The graphs of the ladder pins: the conftest random recipe at
    m = 3n - 1, and K16 and C16 with unit capacities."""
    graphs = {f"rand-n{n}": _random_connected(random.Random(n), n, 2 * n) for n in (18, 20, 22, 24, 40)}
    graphs["K16"] = Graph(16, tuple(Edge(u, v, Fraction(1)) for u in range(16) for v in range(u + 1, 16)))
    graphs["C16"] = Graph(16, tuple(Edge(i, (i + 1) % 16, Fraction(1)) for i in range(16)))
    return graphs


# SHA-256 of the stdout of ``kcut psp`` and ``kcut strength`` on each ladder
# graph.  The sweep's max-flows may augment along any paths: the extreme
# minimum cuts, and so every partition, do not depend on which.
LADDER_SHA256 = {
    ('rand-n18', 'psp'): '9f8fe327de4d949e5762cca970cc6201647194eb5a9c060a92ce7e45fcbe4aee',
    ('rand-n18', 'strength'): '671424b094539ebea7d6f8d94fc4d4549130437ba78843f386887bb3accb4bb6',
    ('rand-n20', 'psp'): '1a819b456260fea00caa0a08c246a2cb27a5fa7e4fd7dd0897b76197ff07c3e7',
    ('rand-n20', 'strength'): '53c6756f893253df14ad2156d0185fe2e99d9cbbf15a26bcf9dd81bf63c33abf',
    ('rand-n22', 'psp'): 'da1127009de31dffb933ba4a669d3701920bcca1b9e35ed80c8ef617c9609257',
    ('rand-n22', 'strength'): 'b185bfe20a1246c142ce14b9bb26986229338f94b55f2e284c74dbc3745e68c3',
    ('rand-n24', 'psp'): 'a41cda5417d6a8b64498f9fb919a45ba0738aa7270ef23c3e8e74d7536a583c8',
    ('rand-n24', 'strength'): '3a9ad14b74e76c5bc559f2325e08e5aa55663c00ef6bb7c57e78d683055ac868',
    ('rand-n40', 'psp'): 'e72ed91cf95fb9a04ad4c9e4dc5be99b65e6addb131c041697f7190322c9d1ff',
    ('rand-n40', 'strength'): '688e2ac2f54f8a7f8c25430d17f680ff951c8746e4fa6fd1c30ea13bb35afc8d',
    ('K16', 'psp'): '482aed37919c433d55747896743ce29e6cc08497f26acc3b2fdf1aee40fe1203',
    ('K16', 'strength'): 'e1644001d35b5f01d0645c60fbcabf4aa5eb9e6d48025d7f57c82a75fce54c70',
    ('C16', 'psp'): '03ac23b66ce21e9b2951fcd7e92826f71d8d651b00e8fc1f3af508aee0e19e10',
    ('C16', 'strength'): 'e6dc58cdb3ede440011faeaa1e71afbc0d47f0660aadd8ec69ca8b0b90b5e95a',
}


@pytest.mark.parametrize("name, command", list(LADDER_SHA256))
def test_ladder_output_pinned(name, command, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(_text(_ladder()[name])))
    assert main([command]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == LADDER_SHA256[name, command]
