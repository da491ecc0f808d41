"""Exact maximum flow / minimum cut by shortest augmenting paths.

Capacities are exact numbers: the attack sweep passes Python ints (its
capacities scaled to integers once per sweep), and Fractions still work,
mixed with ints or alone.  After ``max_flow`` the residual network holds
every minimum cut: the smallest source side is the set reachable from s,
the largest is every vertex with no residual path to t (Picard and
Queyranne 1980).
"""

from __future__ import annotations

from collections import deque


class FlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        # arcs stored flat: to[i], cap[i]; arc i^1 is the reverse of arc i
        self.to: list[int] = []
        self.cap: list = []

    def add_arc(self, u: int, v: int, cap, rev_cap=0):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rev_cap)

    def add_undirected(self, u: int, v: int, cap):
        self.add_arc(u, v, cap, rev_cap=cap)

    def max_flow(self, s: int, t: int):
        """Value of a maximum s-t flow, by Edmonds-Karp; the flow stays in
        the residual capacities.  Exact on ints and Fractions alike: on int
        capacities every step, and the value, stays an int."""
        if s == t:
            raise ValueError("s and t must differ")
        total = 0
        while True:
            prev_arc = [-1] * self.n
            prev_arc[s] = -2
            queue = deque([s])
            while queue and prev_arc[t] == -1:
                u = queue.popleft()
                for a in self.adj[u]:
                    v = self.to[a]
                    if prev_arc[v] == -1 and self.cap[a] > 0:
                        prev_arc[v] = a
                        queue.append(v)
            if prev_arc[t] == -1:
                return total
            # bottleneck along the path
            bottleneck = None
            v = t
            while v != s:
                a = prev_arc[v]
                if bottleneck is None or self.cap[a] < bottleneck:
                    bottleneck = self.cap[a]
                v = self.to[a ^ 1]
            v = t
            while v != s:
                a = prev_arc[v]
                self.cap[a] -= bottleneck
                self.cap[a ^ 1] += bottleneck
                v = self.to[a ^ 1]
            total = total + bottleneck

    def residual_reachable(self, s: int) -> frozenset[int]:
        """Vertices with a residual path from s."""
        return self._search(s, 0)

    def residual_reaching(self, t: int) -> frozenset[int]:
        """Vertices with a residual path to t."""
        return self._search(t, 1)

    def _search(self, root: int, backward: int) -> frozenset[int]:
        # arc a leaves u for to[a]; walking backward follows a's reverse a^1
        seen = [False] * self.n
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for a in self.adj[u]:
                v = self.to[a]
                if not seen[v] and self.cap[a ^ backward] > 0:
                    seen[v] = True
                    queue.append(v)
        return frozenset(i for i in range(self.n) if seen[i])

