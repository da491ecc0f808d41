"""Seeded graph text for the benchmark, written without importing kcut.

A base graph is fixed by its family and size.  Copy 0 of a job is the base
graph itself, on every seed.  For every other copy the seed picks how the
base graph is presented to the program: a vertex relabelling and an edge
order.  Copies are isomorphic to the base graph, so every answer the
program gives on a copy can be checked against the reference recorded on
the base graph through the same relabelling.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


@dataclass(frozen=True)
class BaseGraph:
    name: str
    n: int
    edges: tuple[tuple[int, int, int], ...]  # 0-based (u, v, capacity), u < v

    def text(self) -> str:
        return to_text(self.n, self.edges)


@dataclass(frozen=True)
class Instance:
    """One presentation of a base graph: vertex ``b`` of the base graph is
    vertex ``perm[b]`` here, and edge id ``j`` here is base edge ``order[j]``."""

    base: BaseGraph
    perm: tuple[int, ...]
    order: tuple[int, ...]
    text: str

    @property
    def identity(self) -> bool:
        return self.perm == tuple(range(self.base.n)) and self.order == tuple(
            range(len(self.base.edges))
        )

    @property
    def n(self) -> int:
        return self.base.n

    @cached_property
    def edges(self) -> list[tuple[int, int, Fraction]]:
        """Instance edges as 0-based (u, v, capacity), in instance edge order."""
        out = []
        for j in self.order:
            u, v, c = self.base.edges[j]
            a, b = self.perm[u], self.perm[v]
            out.append((min(a, b), max(a, b), Fraction(c)))
        return out


def to_text(n: int, edges) -> str:
    return f"p kcut {n} {len(edges)}\n" + "".join(
        f"e {u + 1} {v + 1} {c}\n" for u, v, c in edges
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def random_connected(n: int, extra: int) -> BaseGraph:
    """The test suite's ``_random_connected(random.Random(n), n, extra)``
    recipe: a random spanning tree plus ``extra`` random edges (parallels
    allowed), integer capacities 1..9."""
    rng = random.Random(n)
    pairs = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        pairs.append((min(u, v), max(u, v)))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        pairs.append((min(u, v), max(u, v)))
    edges = tuple((u, v, rng.randint(1, 9)) for u, v in pairs)
    return BaseGraph(f"rand-n{n}-x{extra}", n, edges)


def planted(k: int, size: int) -> BaseGraph:
    """``k`` complete clusters of ``size`` vertices with capacities 4..9,
    joined in a ring by unit-capacity edges: the minimum k-cut cuts the ring."""
    rng = random.Random(f"planted-{k}-{size}")
    edges = []
    for c in range(k):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j, rng.randint(4, 9)))
    for c in range(k):
        a = c * size + rng.randrange(size)
        b = (c + 1) % k * size + rng.randrange(size)
        edges.append((min(a, b), max(a, b), 1))
    return BaseGraph(f"planted-k{k}-s{size}", k * size, tuple(edges))


def complete(n: int) -> BaseGraph:
    edges = tuple((u, v, 1) for u in range(n) for v in range(u + 1, n))
    return BaseGraph(f"K{n}", n, edges)


def cycle(n: int) -> BaseGraph:
    edges = tuple((i - 1, i, 1) if i else (0, n - 1, 1) for i in range(n))
    return BaseGraph(f"C{n}", n, tuple(sorted(edges)))


def fixture_tt() -> BaseGraph:
    """Two unit triangles joined by a unit bridge (the test suite's TT)."""
    edges = ((0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1), (2, 3, 1))
    return BaseGraph("TT", 6, edges)


def instance(base: BaseGraph, seed: int, key: str) -> Instance:
    """The copy of ``base`` that ``seed`` gives for the job copy ``key``;
    keys ending in ``#0`` name the base graph itself."""
    perm = list(range(base.n))
    order = list(range(len(base.edges)))
    if not key.endswith("#0"):
        rng = random.Random(f"{seed}/{key}")
        rng.shuffle(perm)
        rng.shuffle(order)
    lines = []
    for j in order:
        u, v, c = base.edges[j]
        lines.append((perm[u], perm[v], c))
    return Instance(base, tuple(perm), tuple(order), to_text(base.n, lines))
