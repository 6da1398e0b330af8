"""Minimum-cost flow by primal-dual phases with integer potentials.

Arcs are stored in pairs: arc ``2k`` is the forward arc, arc ``2k+1`` its
zero-capacity residual reverse.  The caller gives the starting potentials,
one integer per node, when the network is built; every residual arc must
start with a nonnegative reduced cost ``cost + pi[u] - pi[v]``.  The chain
reduction reads them off the poset's levels.

Each phase then runs one Dijkstra on reduced costs (nonnegative by the usual
invariant), rooted at the sink and run over reverse residual arcs, which
lowers the potentials so that every cheapest s->t path uses only arcs of
zero reduced cost, followed by a maximum flow on that zero-reduced-cost
residual subgraph (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9).
The potentials are thus distances *to* the sink, and no arc into a node at
least as far from t as s turns tight.  Were they distances *from* the
source, every node at a smaller distance from s than t would be reachable
from s over zero-reduced-cost arcs, and each augmenting-path search would
wander through that region's dead ends.  Reduced distances are small
nonnegative integers, so the Dijkstra pops nodes from Dial's bucket queue
(*CACM* 12, 1969), one list per distance.  The maximum flow is found by
augmenting-path searches over the arcs whose reduced cost is zero, tested
as they are scanned.  The searches run in rounds that share their marks, so
a dead end found by one search is not explored again by the next in its
round; a round that starts with fresh marks and sends nothing ends the
phase.  Every unit sent in one phase has the same cost, and after the phase
the cheapest s->t cost has strictly risen.  All costs and capacities are
integers, so the computed flows are exactly integral.
"""

from __future__ import annotations

_UNREACHED = 1 << 62  # above every distance; ints keep bucket indices exact


class MinCostFlow:
    def __init__(self, potential: list[int]):
        """A network with one node per entry of ``potential``, its feasible
        starting potentials, and no arcs yet."""
        self.n = len(potential)
        self.adj: list[list[int]] = [[] for _ in potential]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.potential = potential

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

    def cheapest_path(self, s: int, t: int) -> int | None:
        """Dijkstra on reduced costs, rooted at ``t``; returns the cheapest
        s->t cost, or None.

        The search runs backwards: scanning a node x relaxes every residual
        arc into x, each the partner ``b ^ 1`` of an arc ``b`` in x's own
        list.  Nodes wait in one bucket per reduced distance to ``t`` and are
        settled bucket by bucket, stopping at the bucket that holds ``s``.
        The potentials are lowered by the computed distances (capped at the
        distance of ``s``), which keeps every reduced cost nonnegative and
        makes every cheapest s->t path consist of zero-reduced-cost arcs,
        ready for :meth:`push_phase`.  A node at least as far from ``t`` as
        ``s`` is lowered exactly as much as ``s``, so no arc into it turns
        tight and the searches from ``s`` are not led into it.
        """
        if s == t:
            raise ValueError(f"a path needs a source and a sink that differ, got s == t == {s}")
        pi = self.potential
        adj, to, cap, cost = self.adj, self.to, self.cap, self.cost
        dist = [_UNREACHED] * self.n
        dist[t] = 0
        buckets: list[list[int]] = [[t]]
        for d, bucket in enumerate(buckets):  # both lists grow while scanned
            if dist[s] <= d:
                break  # every node still queued would be capped at dist[s] anyway
            for x in bucket:
                if dist[x] != d:
                    continue  # queued again at a smaller distance, already settled
                base = d - pi[x]
                for b in adj[x]:
                    a = b ^ 1  # the arc to[b] -> x
                    if cap[a] > 0:
                        v = to[b]
                        nd = base + cost[a] + pi[v]
                        if nd < dist[v]:
                            dist[v] = nd
                            if nd >= len(buckets):
                                buckets.extend([] for _ in range(nd + 1 - len(buckets)))
                            buckets[nd].append(v)
        ds = dist[s]
        if ds == _UNREACHED:
            return None
        self.potential = pi = [p - (x if x < ds else ds) for p, x in zip(pi, dist)]
        return pi[t] - pi[s]

    def push_phase(self, s: int, t: int, limit: int) -> int:
        """Send at most ``limit`` units over zero-reduced-cost residual arcs.

        Depth-first searches from ``s`` look for paths of residual arcs with
        zero reduced cost, and each path found is augmented.  The searches
        run in rounds (:meth:`_push_round`) that share their marks, so a
        dead end found by one search is not explored again by the next.
        Those marks may hide a path, so the phase ends only at the limit or
        when a round that starts with fresh marks sends nothing; short of
        the limit the result is a maximum flow on the zero-reduced-cost
        subgraph.  Reverse arcs created by the pushes also have zero reduced
        cost, so later searches may use them.  The potentials stay fixed, so
        the tight arcs out of ``s`` are listed once.  Returns the number of
        units sent.
        """
        if s == t:
            raise ValueError(f"a flow needs a source and a sink that differ, got s == t == {s}")
        pi, to, cost = self.potential, self.to, self.cost
        starts = [a for a in self.adj[s] if cost[a] + pi[s] == pi[to[a]]]
        sent = 0
        while sent < limit:
            pushed = self._push_round(s, t, limit - sent, starts)
            if not pushed:
                break  # t is unreachable even with fresh marks: the flow is maximum
            sent += pushed
        return sent

    def _push_round(self, s: int, t: int, limit: int, starts: list[int]) -> int:
        """Augment along zero-reduced-cost paths from ``s`` until ``limit``
        units are sent or a search fails; returns the units sent.

        The searches share one set of marks.  A node that a search entered
        and left without reaching ``t`` stays marked, so no later search of
        the round enters it again; the nodes of an augmenting path are
        unmarked, since they may carry the next unit.  A node is left as a
        dead end even when its only way on ran through a node then on the
        search's path, so a failed search proves the flow maximum only in a
        round that has sent nothing.
        """
        pi = self.potential
        adj, to, cap, cost = self.adj, self.to, self.cap, self.cost
        seen = bytearray(self.n)
        seen[s] = 1
        sent = 0
        while sent < limit:
            path: list[int] = []
            scans = [iter(starts)]  # each node's arcs resume where they stopped
            u, pu = s, pi[s]
            while u != t:
                for a in scans[-1]:
                    if cap[a] > 0:
                        v = to[a]
                        if not seen[v] and cost[a] + pu == pi[v]:
                            seen[v] = 1
                            path.append(a)
                            scans.append(iter(adj[v]))
                            u, pu = v, pi[v]
                            break
                else:
                    if not path:
                        return sent  # the search failed, and with it the round
                    scans.pop()  # u is a dead end and stays marked for the round
                    u = to[path.pop() ^ 1]
                    pu = pi[u]
            push = min(limit - sent, min(cap[a] for a in path))
            for a in path:
                cap[a] -= push
                cap[a ^ 1] += push
                seen[to[a]] = 0
            sent += push
        return sent
