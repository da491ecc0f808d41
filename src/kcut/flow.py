"""Exact maximum flow / minimum cut from supplies to demands: a one-arc
pre-flow, then shortest augmenting paths.

A node's excess is its supply when positive and its demand when negative;
an s-t flow is the case of one supply at s and one demand at t, each
beyond every cut.  Capacities and excesses are exact numbers: the attack
sweep passes Python ints (its capacities scaled to integers once per
sweep), and Fractions still work, mixed with ints or alone.  ``max_flow``
first sends each supply along every arc straight to a demand, in
adjacency order, with no search: the sweep's networks are small and
shallow, and Edmonds-Karp would spend one breadth-first search on each of
those arcs.  Edmonds-Karp then augments from that flow, every supply left
a source, until no residual path joins a supply left to a demand left.

What ``max_flow`` returns, the nodes its last search reached from the
supplies left, is the smallest side of a minimum cut between supplies and
demands.  It is the same for every maximum flow (Picard and Queyranne
1980, on the network with a super source and sink), so it does not depend
on which paths were augmented, and neither does anything the attack sweep
builds on it.
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

    def max_flow(self, excess: list) -> frozenset:
        """Route as much flow as the capacities allow from the nodes of
        positive ``excess`` to the nodes of negative excess, and return the
        nodes reachable in the residual network from those whose positive
        excess is left.  ``excess`` ends holding what no path could route,
        and ``cap`` the residual network, so the amount routed is the
        supplies before less the supplies after.  Exact on ints and
        Fractions alike: on int capacities and excesses every step stays an
        int.

        A pre-flow first sends, in adjacency order, each supply along every
        residual arc to a demand, each time by the least of the supply, the
        demand and the arc's capacity.  Edmonds-Karp finishes from that
        flow, one breadth-first search from all the supplies left per
        augmenting path.  Which paths carry the flow does not matter: the
        amount routed is unique, and so is the side.
        """
        adj, to, cap = self.adj, self.to, self.cap
        sources = [u for u, e in enumerate(excess) if e > 0]
        for u in sources:  # supply u -> demand v
            for a in adj[u]:
                v = to[a]
                if excess[v] < 0 and cap[a] > 0:
                    f = min(excess[u], -excess[v], cap[a])
                    cap[a] -= f
                    cap[a ^ 1] += f
                    excess[u] -= f
                    excess[v] += f
                    if excess[u] == 0:
                        break
        while True:
            prev_arc = [-1] * self.n
            queue = [u for u in sources if excess[u] > 0]  # first in, first out
            for u in queue:
                prev_arc[u] = -2
            sink = -1
            for u in queue:
                for a in adj[u]:
                    v = to[a]
                    if prev_arc[v] == -1 and cap[a] > 0:
                        prev_arc[v] = a
                        queue.append(v)
                        if excess[v] < 0:
                            sink = v
                            break
                if sink >= 0:
                    break
            if sink < 0:  # the search ran to the end: queue is the side
                return frozenset(queue)
            # bottleneck along the path, the source's supply and the sink's demand
            bottleneck = -excess[sink]
            v = sink
            while prev_arc[v] != -2:
                a = prev_arc[v]
                if cap[a] < bottleneck:
                    bottleneck = cap[a]
                v = to[a ^ 1]
            if excess[v] < bottleneck:
                bottleneck = excess[v]
            excess[v] -= bottleneck
            excess[sink] += bottleneck
            v = sink
            while prev_arc[v] != -2:
                a = prev_arc[v]
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
                v = to[a ^ 1]
