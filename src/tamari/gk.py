"""Greene-Kleitman machinery: maximum unions of k chains and k antichains.

The chain side is a profit-flow reduction.  Each element v is split into
v_in -> v_out with a capacity-one, profit-one arc plus a free bypass of
unlimited capacity; u_out -> v_in arcs exist for every cover u < v (the
bypass lets a unit pass through an element another unit already collected,
so covers reach every strict relation); the source feeds every v_in, and
only the out-nodes of maximal elements reach the sink, since a unit that
ends at any element goes on up free bypass and cover arcs to a maximal one.
Sending k units of maximum-profit flow (min-cost flow with unit profits
negated) collects exactly the maximum number of elements coverable by k
chains, and the flow decomposes into k paths whose collected elements are
the chains.

The flow runs in primal-dual phases: each phase sends every unit of the
current largest marginal profit at once.  Marginal profits are the parts of
the Greene-Kleitman partition, a phase of ``m`` units adding ``m`` equal
parts; its conjugate certifies the antichain totals.  One shape-checking
driver runs the phases of every public call, one flow per answer.

The antichain side uses the same flow: stopped once the marginal gain falls
to k, its node potentials (the dual solution) split into level sets that
form a maximum union of k antichains, and the gains of the phases run give
the total they must reach.  Exhaustive oracles for small posets live here
too, so every flow answer can be cross-checked by an independent search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .flow import MinCostFlow
from .poset import Poset

_BIG = 10**9


@dataclass(frozen=True)
class ChainFamily:
    """k pairwise-disjoint chains (element indices, increasing in the order)."""

    chains: tuple[tuple[int, ...], ...]
    total: int


@dataclass(frozen=True)
class AntichainFamily:
    """k pairwise-disjoint antichains (sorted element indices)."""

    antichains: tuple[tuple[int, ...], ...]
    total: int


@dataclass(frozen=True)
class GKPartition:
    """The partition whose first-k partial sums are the max k-chain unions."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("partition parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def prefix(self, k: int) -> int:
        if k < 0:
            raise ValueError("k must be at least 0")
        return sum(self.parts[:k])

    def conjugate(self) -> tuple[int, ...]:
        return conjugate_partition(self.parts)


def conjugate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram of a weakly decreasing partition."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


# -- the chain-side flow reduction --------------------------------------------


class _ChainNetwork:
    """The split-element profit network for one poset, plus bookkeeping."""

    S = 0
    T = 1

    def __init__(self, p: Poset):
        # Exact distances from S start the flow.  The profit arc is the only
        # arc with a nonzero cost, and a cover path of low[v] steps is the
        # longest one ending at v, so v_in lies at -low[v], v_out at
        # -low[v] - 1 and T at minus the longest chain's size.
        low = p.level_map("lowest").levels
        self.first_gain = max(low) + 1
        potential = [0, -self.first_gain]
        for lv in low:
            potential += (-lv, -lv - 1)
        net = MinCostFlow(potential)
        profit: list[int] = []
        maximal = set(p.maximal_elements())
        for v in range(p.n):  # element v owns nodes 2 + 2v (in) and 3 + 2v (out)
            net.add_arc(self.S, 2 + 2 * v, _BIG, 0)
            profit.append(net.add_arc(2 + 2 * v, 3 + 2 * v, 1, -1))
            net.add_arc(2 + 2 * v, 3 + 2 * v, _BIG, 0)  # free bypass
            if v in maximal:  # the rest reach T over a maximal element, at no cost
                net.add_arc(3 + 2 * v, self.T, _BIG, 0)
        for u, v in p.covers:
            net.add_arc(3 + 2 * u, 2 + 2 * v, _BIG, 0)
        self.net = net
        self.profit_arcs = profit

    def phase(self, limit: int, floor: int = 0) -> tuple[int, int]:
        """One primal-dual phase: (marginal gain per unit, units sent).

        At most ``limit`` units are sent, each collecting ``gain`` new
        elements.  A phase whose gain is at most ``floor`` sends no unit at
        all; marginals are weakly decreasing, so no later phase could gain
        more either.  The default keeps zero-profit units out of the flow,
        which guarantees every decomposed path is nonempty.
        """
        # the dual this phase lowers; no copy is needed, as cheapest_path
        # always binds a new list and never writes into one
        self.start_potential = self.net.potential
        cost = self.net.cheapest_path(self.S, self.T)
        if cost is None:
            raise RuntimeError("flow network unexpectedly disconnected")
        if -cost <= floor:
            return -cost, 0
        return -cost, self.net.push_phase(self.S, self.T, limit)

    def run(self, limit: int, floor: int = 0) -> list[int]:
        """Phases until ``limit`` units flowed, every element is collected or
        the gain falls to ``floor``; returns the gain of each unit sent.

        On a fresh network the gains are the leading Greene-Kleitman parts,
        so their guaranteed shape is checked here: the first is the longest
        chain size, they weakly decrease and stay positive while elements
        remain, and a profitable phase sends flow.  A violation is an
        internal error, not data.
        """
        gains: list[int] = []
        left = len(self.profit_arcs)  # one per element
        while len(gains) < limit and left > 0:
            gain, sent = self.phase(limit - len(gains), floor)
            if not gains and gain != self.first_gain:
                raise RuntimeError("first part disagrees with the level structure")
            if gains and gain > gains[-1]:
                raise RuntimeError("flow marginals are not weakly decreasing")
            if gain <= 0:
                raise RuntimeError("flow produced a nonpositive marginal before covering")
            if not sent:
                if gain > floor:
                    raise RuntimeError("a profitable phase sent no flow")
                break
            gains.extend([gain] * sent)
            left -= gain * sent
        return gains

    def decompose(self, k: int) -> list[list[int]]:
        """Peel the k unit paths off the flow; chains as element indices."""
        element = {a: v for v, a in enumerate(self.profit_arcs)}
        return [
            [element[a] for a in self.net.peel_path(self.S, self.T) if a in element]
            for _ in range(k)
        ]


def max_chain_union(p: Poset, k: int) -> ChainFamily:
    """A maximum-size union of k chains, as an explicit disjoint family.

    The family is deterministic for a given poset; when fewer than k chains
    suffice for the maximum, the extras come back empty.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    network = _ChainNetwork(p)
    gains = network.run(k)
    chains = network.decompose(len(gains))
    if sum(gains) != sum(len(c) for c in chains) or any(not c for c in chains):
        raise RuntimeError("flow decomposition lost elements")
    chains.extend([] for _ in range(k - len(gains)))
    return ChainFamily(tuple(tuple(c) for c in chains), sum(gains))


def chain_union_sizes(p: Poset, k: int) -> list[int]:
    """Cumulative maximum union sizes for 1, 2, ..., k chains (one flow run)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    sizes = list(accumulate(_ChainNetwork(p).run(k)))
    sizes.extend([sizes[-1]] * (k - len(sizes)))  # every element collected
    return sizes


def gk_partition(p: Poset) -> GKPartition:
    """The full Greene-Kleitman partition of the poset.

    The flow stays optimal at every intermediate number of units, so the
    marginal profits are exactly the parts, one phase per distinct part; the
    run stops once every element is collected.
    """
    return GKPartition(tuple(_ChainNetwork(p).run(p.n)))


# -- antichain side ------------------------------------------------------------


def max_antichain_union(p: Poset, k: int) -> AntichainFamily:
    """A maximum-size union of k disjoint antichains, read off the chain flow.

    The chain flow runs its phases while the marginal gain exceeds k.  The
    last Dijkstra lowers the potentials from a dual of the final flow whose
    source-sink gain exceeds k to one whose gain is at most k; capping each
    node's lowering at the excess over k of the starting gain keeps a dual
    of the final flow whose gain is exactly k, and its level sets are an
    optimal antichain family (A. Frank, *JCT B* 29, 1980): an element
    belongs to the union iff its in-node sits at least one above its
    out-node, and members sharing the in-node potential form one antichain.
    For u < v the cover and bypass arcs force ``pi[v_in] <= pi[u_out]``,
    which is below ``pi[u_in]`` for a member u, so comparable members never
    share a group; member potentials lie in a window of k integers.  The
    total is the contract: it equals the sum of the first k parts of the
    conjugate of the Greene-Kleitman partition: ``n`` minus the excess over
    k of each part above k, which are the gains of the same phases.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    network = _ChainNetwork(p)
    gains = network.run(p.n, floor=k)
    if sum(gains) == p.n:
        network.phase(1, floor=k)  # the final dual comes from a Dijkstra that sends nothing
    # the starting potentials (gain above k) and the lowered ones (gain at
    # most k) are both duals of the final flow; capping the lowering in
    # between keeps a dual whose gain is exactly k
    before = network.start_potential
    cap = max(0, before[network.S] - before[network.T] - k)
    pi_k = [b - min(b - x, cap) for b, x in zip(before, network.net.potential)]
    groups: dict[int, list[int]] = {}
    for v in range(p.n):
        if pi_k[2 + 2 * v] - pi_k[3 + 2 * v] >= 1:
            groups.setdefault(pi_k[2 + 2 * v], []).append(v)
    # potentials fall going up the order, so the lowest antichain comes first
    chosen = [groups[key] for key in sorted(groups, reverse=True)]
    total = sum(len(a) for a in chosen)
    if len(chosen) > k or total != p.n - sum(g - k for g in gains):
        raise RuntimeError("constructed antichain family misses the certified total")
    chosen.extend([] for _ in range(k - len(chosen)))
    return AntichainFamily(tuple(tuple(a) for a in chosen), total)


# -- exhaustive oracles --------------------------------------------------------

ORACLE_MAX_ELEMENTS = 24


def oracle_chain_union(p: Poset, k: int) -> int:
    """Exact maximum k-chain union size by memoized exhaustive search.

    Walks a linear extension deciding, element by element, whether to skip
    it or append it to one of k chains (tracked by their current tops);
    completely independent of the flow reduction.  Hard caps: at most
    24 elements and k <= 3.
    """
    if p.n > ORACLE_MAX_ELEMENTS:
        raise ValueError(f"oracle capped at {ORACLE_MAX_ELEMENTS} elements, got {p.n}")
    if not 1 <= k <= 3:
        raise ValueError("oracle supports 1 <= k <= 3")
    order = p.topological_order()
    n = p.n
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def best(pos: int, tops: tuple[int, ...]) -> int:
        if pos == n:
            return 0
        key = (pos, tops)
        cached = memo.get(key)
        if cached is not None:
            return cached
        e = order[pos]
        value = best(pos + 1, tops)
        for slot in range(k):
            t = tops[slot]
            if t == -1 or p.leq(t, e):
                nxt = tuple(sorted(tops[:slot] + (e,) + tops[slot + 1 :]))
                value = max(value, 1 + best(pos + 1, nxt))
        memo[key] = value
        return value

    return best(0, (-1,) * k)


def oracle_max_antichain(p: Poset) -> int:
    """Exact maximum antichain size by branch-and-bound over subsets."""
    if p.n > ORACLE_MAX_ELEMENTS:
        raise ValueError(f"oracle capped at {ORACLE_MAX_ELEMENTS} elements, got {p.n}")
    n = p.n
    incompatible = [
        sum(1 << j for j in range(n) if p.leq(i, j) or p.leq(j, i)) for i in range(n)
    ]
    best = 0

    def dfs(pos: int, count: int, blocked: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if pos == n or count + (n - pos) <= best:
            return
        if not (blocked >> pos) & 1:
            dfs(pos + 1, count + 1, blocked | incompatible[pos])
        dfs(pos + 1, count, blocked)

    dfs(0, 0, 0)
    return best
