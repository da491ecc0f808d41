"""Exact maximum flow / minimum cut: a short-path pre-flow, then shortest
augmenting paths.

Capacities are exact numbers: the attack sweep passes Python ints (its
capacities scaled to integers once per sweep), and Fractions still work,
mixed with ints or alone.  ``max_flow`` first pushes flow along every
residual path of two and of three arcs, in adjacency order, with no
search: the sweep's networks are small and shallow, and Edmonds-Karp
would spend one breadth-first search on each of those paths.
Edmonds-Karp then augments from that flow until no residual path is left.

With the value, ``max_flow`` returns what its last search, the one that
misses t, reached: the smallest source side of a minimum cut.  It is the
same for every maximum flow (Picard and Queyranne 1980), so it does not
depend on which paths were augmented, and neither does anything the attack
sweep builds on it.
"""

from __future__ import annotations


class FlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        # arcs stored flat: to[i], cap[i]; arc i^1 is the reverse of arc i
        self.to: list[int] = []
        self.cap: list = []

    def add_arc(self, u: int, v: int, cap, rev_cap=0):
        to, adj, caps = self.to, self.adj, self.cap
        a = len(to)
        adj[u].append(a)
        adj[v].append(a + 1)
        to.append(v)
        to.append(u)
        caps.append(cap)
        caps.append(rev_cap)

    def max_flow(self, s: int, t: int):
        """``(value, side)``: the value of a maximum s-t flow and the
        vertices reachable from s in its residual network, as a frozenset.
        The flow stays in the residual capacities.  Exact on ints and
        Fractions alike: on int capacities every step, and the value, stays
        an int.

        A pre-flow first saturates, in adjacency order, every residual path
        s->v->t and then every s->u->v->t, each by its bottleneck.
        Edmonds-Karp finishes from that flow, one breadth-first search per
        augmenting path, a direct arc s->t among them.  Which paths carry the
        flow does not matter: the value is unique, and so is the side.
        """
        if s == t:
            raise ValueError("s and t must differ")
        adj, to, cap = self.adj, self.to, self.cap
        into_t: dict[int, list[int]] = {}  # v -> the arcs v->t
        for a in adj[t]:
            into_t.setdefault(to[a], []).append(a ^ 1)
        into_t.pop(t, None)
        total = 0
        for a in adj[s]:  # s->v->t
            for b in into_t.get(to[a], ()):
                f = min(cap[a], cap[b])
                if f > 0:
                    cap[a] -= f
                    cap[a ^ 1] += f
                    cap[b] -= f
                    cap[b ^ 1] += f
                    total = total + f
        for a in adj[s]:  # s->u->v->t, until s->u is saturated
            u = to[a]
            if u == t:
                continue
            for b in adj[u]:
                if cap[a] <= 0:
                    break
                v = to[b]
                if v == s or cap[b] <= 0:
                    continue
                for c in into_t.get(v, ()):
                    f = min(cap[a], cap[b], cap[c])
                    if f > 0:
                        cap[a] -= f
                        cap[a ^ 1] += f
                        cap[b] -= f
                        cap[b ^ 1] += f
                        cap[c] -= f
                        cap[c ^ 1] += f
                        total = total + f
        while True:
            prev_arc = [-1] * self.n
            prev_arc[s] = -2
            queue = [s]  # first in, first out: the loop reads what it appends
            for u in queue:
                for a in adj[u]:
                    v = to[a]
                    if prev_arc[v] == -1 and cap[a] > 0:
                        prev_arc[v] = a
                        queue.append(v)
                if prev_arc[t] != -1:
                    break
            if prev_arc[t] == -1:  # the search ran to the end: queue is the side
                return total, frozenset(queue)
            # bottleneck along the path
            bottleneck = None
            v = t
            while v != s:
                a = prev_arc[v]
                if bottleneck is None or cap[a] < bottleneck:
                    bottleneck = cap[a]
                v = to[a ^ 1]
            v = t
            while v != s:
                a = prev_arc[v]
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
                v = to[a ^ 1]
            total = total + bottleneck
