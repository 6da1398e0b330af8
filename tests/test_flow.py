"""The phase-based chain engine: recorded partitions, network shape, and a
networkx cross-check on posets beyond the exhaustive oracle's cap."""

import random
from itertools import accumulate

import networkx as nx
import numpy as np
import pytest

from conftest import check_chain_family, random_poset
from tamari import (
    ChainFamily,
    Poset,
    chain_union_sizes,
    enumerate_type_b,
    gk_partition,
    max_antichain_union,
    max_chain_union,
    tamari_poset,
)
from tamari.flow import MinCostFlow
from tamari.gk import _ChainNetwork


def _expand(runs: list[tuple[int, int]]) -> tuple[int, ...]:
    """A partition from (part, multiplicity) runs."""
    return tuple(part for part, count in runs for _ in range(count))


# Partitions recorded from the successive-shortest-path engine over the
# strict-relation network, which ran one Dijkstra per unit of flow.
RECORDED = {
    ("b", 5): [(26, 1), (21, 1), (18, 1), (16, 1), (15, 1), (14, 1), (13, 1), (11, 2), (9, 2),
               (8, 3), (7, 1), (6, 3), (5, 4), (3, 4), (2, 2), (1, 4)],
    ("b", 6): [(37, 1), (32, 1), (29, 1), (27, 1), (26, 1), (25, 1), (24, 1), (23, 2), (21, 1),
               (20, 1), (19, 3), (18, 1), (16, 2), (15, 2), (14, 5), (13, 3), (12, 6), (11, 2),
               (10, 2), (9, 4), (8, 5), (7, 8), (6, 6), (5, 8), (4, 10), (3, 5), (2, 5), (1, 4)],
    ("a", 7): [(22, 1), (18, 1), (16, 1), (15, 1), (14, 3), (12, 3), (11, 1), (10, 5), (9, 3),
               (8, 5), (7, 5), (6, 3), (5, 7), (4, 9), (3, 7), (2, 1), (1, 5)],
    ("b", 7): [(50, 1), (45, 1), (42, 1), (40, 1), (39, 1), (37, 1), (36, 2), (35, 1), (34, 2),
               (33, 2), (32, 1), (31, 2), (30, 1), (29, 3), (28, 1), (27, 4), (26, 2), (25, 4),
               (24, 3), (23, 7), (22, 4), (21, 7), (19, 5), (18, 3), (17, 11), (16, 7), (15, 4),
               (14, 8), (13, 13), (12, 18), (11, 8), (10, 15), (9, 9), (8, 21), (7, 8), (6, 26),
               (5, 17), (4, 24), (3, 17), (2, 15), (1, 5)],
}


# T_8^B (12,870 elements), recorded from the level-graph engine through
# Poset.from_vectors(enumerate_type_b(8)), since tamari_poset stops at n = 7;
# the augmenting-path engine reproduces it in a few seconds, checked below.
T8B_RECORDED = [
    (65, 1), (60, 1), (57, 1), (55, 1), (54, 1), (52, 1), (51, 1), (50, 1), (49, 3), (48, 1),
    (47, 1), (46, 4), (45, 1), (44, 3), (43, 2), (42, 3), (41, 4), (40, 2), (39, 4), (38, 5),
    (37, 4), (36, 5), (35, 5), (34, 4), (33, 14), (32, 5), (31, 8), (30, 9), (29, 5), (28, 9),
    (27, 10), (26, 8), (25, 15), (24, 12), (23, 19), (22, 10), (21, 30), (20, 9), (19, 27),
    (18, 14), (17, 16), (16, 27), (15, 30), (14, 23), (13, 37), (12, 36), (11, 39), (10, 57),
    (9, 36), (8, 53), (7, 44), (6, 57), (5, 40), (4, 69), (3, 38), (2, 36), (1, 24),
]


@pytest.mark.parametrize("kind,n", sorted(RECORDED))
def test_partition_matches_record(kind, n):
    parts = gk_partition(tamari_poset(kind, n)).parts
    assert parts == _expand(RECORDED[kind, n])


def test_t8b_record_has_the_theorem_shape():
    parts = _expand(T8B_RECORDED)
    n = 8
    assert sum(parts) == 12870  # C(16, 8) elements
    assert parts[0] == n * n + 1 and parts[1] == n * n - 4
    assert all(a >= b for a, b in zip(parts, parts[1:]))
    assert len(set(parts)) == len(T8B_RECORDED) == 57
    assert len(parts) == 925


def test_t8b_record_matches_a_live_run(monkeypatch):
    passes = []
    cheapest_path = MinCostFlow.cheapest_path

    def counted(self, s, t):
        passes.append(s)
        return cheapest_path(self, s, t)

    monkeypatch.setattr(MinCostFlow, "cheapest_path", counted)
    p = Poset.from_vectors(enumerate_type_b(8))
    assert gk_partition(p).parts == _expand(T8B_RECORDED)
    assert len(passes) == 57


def test_one_dijkstra_per_distinct_part(monkeypatch):
    """Each phase is a maximum flow, so no part value needs a second pass."""
    passes = []
    cheapest_path = MinCostFlow.cheapest_path

    def counted(self, s, t):
        passes.append(s)
        return cheapest_path(self, s, t)

    monkeypatch.setattr(MinCostFlow, "cheapest_path", counted)
    parts = gk_partition(tamari_poset("b", 5)).parts
    assert len(passes) == len(set(parts)) == 16
    for kind, n, distinct in (("b", 6, 28), ("a", 7, 17)):
        passes.clear()
        parts = gk_partition(tamari_poset(kind, n)).parts
        assert len(passes) == len(set(parts)) == distinct
    rng = random.Random(1111)
    for _ in range(120):
        p = random_poset(rng, rng.randint(5, 60), rng.choice([0.05, 0.1, 0.2, 0.35]))
        passes.clear()
        parts = gk_partition(p).parts
        assert len(passes) == len(set(parts))


def test_phase_reroutes_through_a_reverse_arc():
    """The first search takes s-a-b-t; the second unit can then only run
    s-b, back over the reverse of a->b, then a-t."""
    s, a, b, t = range(4)
    net = MinCostFlow([0, 0, 0, 0])  # every arc is free, so every distance is 0
    arcs = [net.add_arc(u, v, 1, 0) for u, v in ((s, a), (s, b), (a, b), (a, t), (b, t))]
    assert net.cheapest_path(s, t) == 0
    assert net.push_phase(s, t, 5) == 2
    assert [net.flow_on(x) for x in arcs] == [1, 1, 0, 1, 1]
    assert net.push_phase(s, t, 5) == 0


def test_source_and_sink_must_differ():
    net = MinCostFlow([0, 0])
    net.add_arc(0, 1, 1, 0)
    for call in (lambda: net.cheapest_path(0, 0), lambda: net.push_phase(0, 0, 1)):
        with pytest.raises(ValueError, match="s == t == 0"):
            call()
    assert net.cheapest_path(0, 1) == 0 and net.push_phase(0, 1, 1) == 1


class _RecordedArcs(list):
    """An adjacency list that records each iteration over it."""

    def __init__(self, arcs):
        super().__init__(arcs)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_phase_searches_skip_a_dead_end_beside_the_source():
    """Phase 1 sends s-a-d-t at cost -2.  In phase 2 d is nearer to s than t
    is, but reaches t only back through s; sink-rooted potentials leave s->d
    untight, so the second unit runs s-b-t without entering d or e."""
    s, a, d, t, e, b = range(6)
    # distances from s: d is reached free over a, and t at -2 over d
    net = MinCostFlow([0, 0, 0, -2, 0, 0])
    for u, v, cap, cost in ((s, d, 1, 1), (s, a, 1, 0), (a, d, 1, 0), (d, t, 1, -2),
                            (d, e, 1, 0), (s, b, 1, 0), (b, t, 1, 0)):
        net.add_arc(u, v, cap, cost)
    assert net.cheapest_path(s, t) == -2
    assert net.push_phase(s, t, 5) == 1
    assert net.cheapest_path(s, t) == 0
    net.adj[e] = recorded = _RecordedArcs(net.adj[e])
    assert net.push_phase(s, t, 5) == 1
    assert recorded.iterations == 0
    assert [net.flow_on(x) for x in range(0, len(net.to), 2)] == [0, 1, 1, 1, 0, 1, 1]


def test_a_fresh_round_finds_the_path_the_marks_hid():
    """The first search runs s-y-t after entering x, whose only way on is
    back to y, then on the search's path; so x stays marked, and the second
    search of the round stops at z.  A round with fresh marks sends s-z-x-y-t."""
    s, y, x, t, z = range(5)
    net = MinCostFlow([0] * 5)
    arcs = [net.add_arc(u, v, cap, 0)
            for u, v, cap in ((s, y, 1), (y, x, 1), (x, y, 1), (y, t, 2), (s, z, 1), (z, x, 1))]
    assert net.cheapest_path(s, t) == 0
    net.adj[x] = recorded = _RecordedArcs(net.adj[x])
    assert net.push_phase(s, t, 5) == 2
    assert [net.flow_on(a) for a in arcs] == [1, 0, 1, 2, 1, 1]
    assert recorded.iterations == 2  # once in each round that sent a unit


def test_a_round_leaves_a_dead_end_once():
    """x is entered from a and reaches nothing; the round's second search,
    from b, does not enter it again, and the round after finds s saturated."""
    s, a, b, x, t = range(5)
    net = MinCostFlow([0] * 5)
    for u, v in ((s, a), (s, b), (a, x), (a, t), (b, x), (b, t)):
        net.add_arc(u, v, 1, 0)
    assert net.cheapest_path(s, t) == 0
    net.adj[x] = recorded = _RecordedArcs(net.adj[x])
    assert net.push_phase(s, t, 5) == 2
    assert recorded.iterations == 1


def _networkx_zero_cost_max_flow(net: MinCostFlow, s: int, t: int) -> int:
    """networkx's maximum flow over the residual arcs of zero reduced cost,
    parallel arcs merged into one of their summed capacity."""
    g = nx.DiGraph()
    g.add_nodes_from((s, t))
    pi = net.potential
    for u in range(net.n):
        for a in net.adj[u]:
            v = net.to[a]
            if net.cap[a] > 0 and net.cost[a] + pi[u] == pi[v]:
                held = g.edges[u, v]["capacity"] if g.has_edge(u, v) else 0
                g.add_edge(u, v, capacity=held + net.cap[a])
    return nx.maximum_flow_value(g, s, t)


def test_rounds_send_the_networkx_maximum_flow(monkeypatch):
    """Every phase sends the maximum flow of the subgraph its Dijkstra left,
    including phases where a later round finds what the first one's marks hid."""
    maximum, rounds, phases = [], [], []
    cheapest_path, push_phase, push_round = (
        MinCostFlow.cheapest_path, MinCostFlow.push_phase, MinCostFlow._push_round)

    def measured(self, s, t):
        cost = cheapest_path(self, s, t)
        maximum.append(_networkx_zero_cost_max_flow(self, s, t))
        return cost

    def counted(self, *args):
        rounds.append(push_round(self, *args))
        return rounds[-1]

    def checked(self, s, t, limit):
        rounds.clear()
        sent = push_phase(self, s, t, limit)
        assert sent == min(limit, maximum[-1])
        assert sent == limit or rounds[-1] == 0  # short of the limit, a fresh round sent nothing
        phases.append(list(rounds))
        return sent

    monkeypatch.setattr(MinCostFlow, "cheapest_path", measured)
    monkeypatch.setattr(MinCostFlow, "_push_round", counted)
    monkeypatch.setattr(MinCostFlow, "push_phase", checked)
    rng = random.Random(7)
    for _ in range(300):
        gk_partition(random_poset(rng, rng.randint(5, 60), rng.choice([0.05, 0.1, 0.2, 0.35])))
    for kind, top in (("a", 6), ("b", 5)):
        for n in range(1, top + 1):
            gk_partition(tamari_poset(kind, n))
    assert len(phases) > 1000
    assert sum(any(units[1:]) for units in phases) >= 1


def test_limit_cuts_phases_mid_run():
    """k = 9 and k = 11 stop inside the repeated parts 2, 2 and 1, 1."""
    parts = (17, 12, 9, 8, 6, 5, 4, 3, 2, 2, 1, 1)
    prefixes = list(accumulate(parts))
    p = tamari_poset("b", 4)
    assert chain_union_sizes(p, 12) == prefixes
    assert chain_union_sizes(p, 14) == prefixes + [70, 70]
    for k in (9, 11):
        assert chain_union_sizes(p, k) == prefixes[:k]
        fam = max_chain_union(p, k)
        check_chain_family(p, fam)
        assert fam.total == prefixes[k - 1]


def test_network_has_cover_arcs_only():
    p = tamari_poset("b", 5)
    net = _ChainNetwork(p).net
    assert len(p.covers) == 630
    assert p.maximal_elements() == [251]
    # per element a source, profit and bypass arc; one sink arc, at the top
    assert len(net.to) // 2 == 3 * 252 + 1 + 630


def test_full_phases_keep_unit_arcs_binary():
    p = tamari_poset("b", 4)
    network = _ChainNetwork(p)
    units = 0
    while True:
        gain, sent = network.phase(p.n)
        if not sent:
            break
        units += sent
    flows = [network.net.flow_on(a) for a in network.profit_arcs]
    assert set(flows) == {1}
    assert units == 12
    chains = network.decompose(units)
    check_chain_family(p, ChainFamily(tuple(map(tuple, chains)), p.n))
    fam = max_chain_union(p, 5)
    check_chain_family(p, fam)
    assert fam.total == 17 + 12 + 9 + 8 + 6


def _networkx_start_potentials(p) -> list[int]:
    """Distances from S in the chain network, by networkx's Bellman-Ford.

    The graph is built from the covers alone, numbered as the network is
    (S = 0, T = 1, element v in at 2 + 2v and out at 3 + 2v); the parallel
    profit and bypass arcs of an element become one edge of cost -1.
    """
    g = nx.DiGraph()
    for v in range(p.n):
        g.add_edge(0, 2 + 2 * v, weight=0)
        g.add_edge(2 + 2 * v, 3 + 2 * v, weight=-1)
        g.add_edge(3 + 2 * v, 1, weight=0)
    for u, v in p.covers:
        g.add_edge(3 + 2 * u, 2 + 2 * v, weight=0)
    dist = nx.single_source_bellman_ford_path_length(g, 0)
    return [dist[x] for x in range(2 + 2 * p.n)]


def _start_potentials_posets():
    rng = random.Random(2626)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 40), rng.choice([0.05, 0.1, 0.2, 0.35]))
        yield p
        yield p.dual()  # its extension is index order reversed
    for kind in ("a", "b"):
        for n in range(1, 7):
            yield tamari_poset(kind, n)
            yield tamari_poset(kind, n).dual()


def test_start_potentials_are_the_networkx_distances():
    """The potentials read off the levels are the exact distances from S."""
    for p in _start_potentials_posets():
        assert _ChainNetwork(p).net.potential == _networkx_start_potentials(p)


# -- networkx cross-check ------------------------------------------------------


def _networkx_chain_union(p, k: int) -> int:
    """Max k-chain union from networkx's network simplex.

    Built independently of the library: each element is split into in/out
    nodes joined by a unit-capacity arc of cost -1 plus a free bypass, and
    every strict relation of ``leq_matrix`` (not only covers) gets a free
    out -> in arc.  Exactly k units go from source to sink; units that
    collect nothing take a free path, so the optimum is minus the answer.
    """
    lt = p.leq_matrix & ~np.eye(p.n, dtype=bool)
    g = nx.MultiDiGraph()
    g.add_node("s", demand=-k)
    g.add_node("t", demand=k)
    for v in range(p.n):
        g.add_edge("s", ("in", v), weight=0)
        g.add_edge(("in", v), ("out", v), weight=-1, capacity=1)
        g.add_edge(("in", v), ("out", v), weight=0)
        g.add_edge(("out", v), "t", weight=0)
    for u, v in np.argwhere(lt):
        g.add_edge(("out", int(u)), ("in", int(v)), weight=0)
    cost, _ = nx.network_simplex(g)
    return -cost


def _cross_check(p) -> None:
    sizes = chain_union_sizes(p, 3)
    part = gk_partition(p)
    for k in (1, 2, 3):
        expected = _networkx_chain_union(p, k)
        assert sizes[k - 1] == expected
        assert part.prefix(k) == expected
        assert max_chain_union(p, k).total == expected


def test_networkx_agrees_on_random_posets_beyond_oracle_cap():
    rng = random.Random(4242)
    for _ in range(12):
        p = random_poset(rng, rng.randint(25, 60), rng.choice([0.05, 0.1, 0.2]))
        _cross_check(p)


def test_networkx_agrees_on_t4b():
    _cross_check(tamari_poset("b", 4))


# -- one phase driver behind every public call ---------------------------------


def test_antichain_side_runs_one_flow(monkeypatch):
    """The antichain total is read off its own phases; no second flow runs."""
    passes = []
    cheapest_path = MinCostFlow.cheapest_path

    def counted(self, s, t):
        passes.append(s)
        return cheapest_path(self, s, t)

    monkeypatch.setattr(MinCostFlow, "cheapest_path", counted)
    p = tamari_poset("b", 5)
    for k, expected in ((1, 16), (2, 15), (3, 14)):
        passes.clear()
        max_antichain_union(p, k)
        assert len(passes) == expected


def test_each_public_call_builds_one_network(monkeypatch):
    built = []
    init = _ChainNetwork.__init__

    def counted(self, p):
        built.append(p)
        init(self, p)

    monkeypatch.setattr(_ChainNetwork, "__init__", counted)
    p = tamari_poset("b", 4)
    for call in (lambda: gk_partition(p), lambda: chain_union_sizes(p, 3),
                 lambda: max_chain_union(p, 3), lambda: max_antichain_union(p, 2)):
        built.clear()
        call()
        assert len(built) == 1


# What a faulty phase reports, from the true (gain, sent) and the phase's index
# on its network; T_4^B's first two gains are 17 and 12.
SHAPE_FAULTS = {
    "weakly decreasing": lambda gain, sent, i: (gain + 10 * i, sent),
    "level structure": lambda gain, sent, i: (gain + (i == 0), sent),
    "sent no flow": lambda gain, sent, i: (gain, 0),
}


@pytest.mark.parametrize("fault", sorted(SHAPE_FAULTS))
def test_every_public_call_checks_the_phase_shape(monkeypatch, fault):
    phase = _ChainNetwork.phase
    calls: dict[int, int] = {}

    def faulty(self, limit, floor=0):
        gain, sent = phase(self, limit, floor)
        i = calls.get(id(self), 0)
        calls[id(self)] = i + 1
        return SHAPE_FAULTS[fault](gain, sent, i)

    monkeypatch.setattr(_ChainNetwork, "phase", faulty)
    p = tamari_poset("b", 4)
    for call in (lambda: gk_partition(p), lambda: chain_union_sizes(p, 3),
                 lambda: max_chain_union(p, 3), lambda: max_antichain_union(p, 1)):
        calls.clear()
        with pytest.raises(RuntimeError, match=fault):
            call()
