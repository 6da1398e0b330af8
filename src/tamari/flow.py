"""Minimum-cost flow by primal-dual phases with potentials.

Arcs are stored in pairs: arc ``2k`` is the forward arc, arc ``2k+1`` its
zero-capacity residual reverse.  The solver assumes an acyclic network whose
only negative costs sit on forward arcs, which is all the chain-packing
reduction needs: one exact single-pass relaxation in topological node order
establishes initial potentials.

Each phase then runs one Dijkstra on reduced costs (nonnegative by the usual
invariant), which advances the potentials so that every cheapest s->t path
uses only arcs of zero reduced cost, followed by a maximum flow on that
zero-reduced-cost residual subgraph (Ahuja, Magnanti & Orlin, *Network
Flows*, 1993, ch. 9).  Every unit sent in one phase has the same cost, and
after the phase the cheapest s->t cost has strictly risen.  All costs and
capacities are integers, so the computed flows are exactly integral.
"""

from __future__ import annotations

import heapq
from collections import deque

_UNREACHED = float("inf")


class MinCostFlow:
    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.potential: list[float] | None = None

    def add_arc(self, u: int, v: int, cap: int, cost: int) -> int:
        a = len(self.to)
        self.adj[u].append(a)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[v].append(a + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return a

    def flow_on(self, a: int) -> int:
        """Units currently routed through forward arc ``a``."""
        return self.cap[a ^ 1]

    def peel_path(self, s: int, t: int) -> list[int]:
        """Remove one unit of flow along an s->t path; return its forward arcs.

        From each node the path leaves by the first forward arc that carries
        flow, so k calls split a k-unit flow of an acyclic network into k
        paths.
        """
        cap = self.cap
        path: list[int] = []
        u = s
        while u != t:
            for a in self.adj[u]:
                if a % 2 == 0 and self.flow_on(a) > 0:
                    break
            else:
                raise RuntimeError("flow decomposition ran out of arcs")
            cap[a] += 1
            cap[a ^ 1] -= 1
            path.append(a)
            u = self.to[a]
        return path

    def init_potentials(self, topo_nodes: list[int], source: int) -> None:
        """Exact shortest-path distances on the initial DAG, one pass."""
        dist = [_UNREACHED] * self.n
        dist[source] = 0.0
        for u in topo_nodes:
            du = dist[u]
            if du is _UNREACHED:
                continue
            for a in self.adj[u]:
                if self.cap[a] <= 0:
                    continue
                v = self.to[a]
                nd = du + self.cost[a]
                if nd < dist[v]:
                    dist[v] = nd
        self.potential = dist

    def cheapest_path(self, s: int, t: int) -> int | None:
        """Dijkstra on reduced costs; returns the cheapest s->t cost, or None.

        The potentials are advanced by the computed distances (capped at the
        distance of ``t``), which keeps every reduced cost nonnegative and
        makes every cheapest s->t path consist of zero-reduced-cost arcs,
        ready for :meth:`push_phase`.
        """
        pi = self.potential
        if pi is None:
            raise RuntimeError("init_potentials must run before augmenting")
        adj, to, cap, cost = self.adj, self.to, self.cap, self.cost
        dist = [_UNREACHED] * self.n
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == t:
                break  # every node still queued would be capped at d anyway
            if d > dist[u]:
                continue
            base = d + pi[u]
            for a in adj[u]:
                if cap[a] <= 0:
                    continue
                v = to[a]
                nd = base + cost[a] - pi[v]
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        dt = dist[t]
        if dt == _UNREACHED:
            return None
        for v in range(self.n):
            pi[v] += dist[v] if dist[v] < dt else dt
        return int(pi[t] - pi[s])

    def push_phase(self, s: int, t: int, limit: int) -> int:
        """Send at most ``limit`` units over zero-reduced-cost residual arcs.

        Repeats a level-graph BFS and a blocking-flow DFS until ``t`` is
        unreachable or ``limit`` units are sent, so short of the limit the
        result is a maximum flow on the zero-reduced-cost subgraph.  Reverse
        arcs created by the pushes also have zero reduced cost, so they take
        part in later rounds.  Returns the number of units sent.
        """
        pi = self.potential
        if pi is None:
            raise RuntimeError("init_potentials must run before augmenting")
        to, cap, cost = self.to, self.cap, self.cost
        zero = [[a for a in arcs if cost[a] + pi[u] == pi[to[a]]]
                for u, arcs in enumerate(self.adj)]
        sent = 0
        while sent < limit:
            level = self._levels(zero, s, t)
            if level[t] < 0:
                break
            sent += self._blocking_flow(zero, level, s, t, limit - sent)
        return sent

    def _levels(self, zero: list[list[int]], s: int, t: int) -> list[int]:
        """BFS distances (in arcs) from s over residual arcs in ``zero``, up to t's."""
        to, cap = self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if level[t] >= 0 and level[u] >= level[t]:
                break
            nxt = level[u] + 1
            for a in zero[u]:
                v = to[a]
                if level[v] < 0 and cap[a] > 0:
                    level[v] = nxt
                    queue.append(v)
        return level

    def _blocking_flow(self, zero: list[list[int]], level: list[int], s: int, t: int,
                       limit: int) -> int:
        """Iterative DFS with current-arc pointers along level-increasing arcs."""
        to, cap = self.to, self.cap
        pointer = [0] * self.n
        path: list[int] = []
        sent = 0
        u = s
        while sent < limit:
            if u == t:
                push = min(limit - sent, min(cap[a] for a in path))
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                sent += push
                path.clear()
                u = s
                continue
            arcs = zero[u]
            nxt = level[u] + 1
            for i in range(pointer[u], len(arcs)):
                a = arcs[i]
                if cap[a] > 0 and level[to[a]] == nxt:
                    pointer[u] = i
                    path.append(a)
                    u = to[a]
                    break
            else:
                if u == s:
                    break
                level[u] = -1  # dead end for the rest of this round
                u = to[path.pop() ^ 1]
                pointer[u] += 1
        return sent
