import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_antichain_family, check_chain_family, random_poset
from tamari import (
    GKPartition,
    Poset,
    chain_union_sizes,
    conjugate_partition,
    gk_partition,
    max_antichain_union,
    max_chain_union,
    oracle_chain_union,
    oracle_max_antichain,
    tamari_poset,
)
from tamari.gk import _ChainNetwork


def test_t2b_chain_unions():
    p = tamari_poset("b", 2)
    assert chain_union_sizes(p, 2) == [5, 6]
    fam = max_chain_union(p, 1)
    check_chain_family(p, fam)
    assert fam.total == 5


def test_t2b_partition():
    assert gk_partition(tamari_poset("b", 2)).parts == (5, 1)


def test_antichain_partition_of_antichain_poset():
    p = Poset.from_predicate(list(range(6)), lambda a, b: a == b)
    assert gk_partition(p).parts == (1,) * 6


def test_enough_chains_cover_everything(diamond_poset):
    fam = max_chain_union(diamond_poset, 4)
    assert fam.total == diamond_poset.n
    assert sum(1 for c in fam.chains if c) <= 2  # extras come back empty


def test_diamond_values(diamond_poset):
    assert chain_union_sizes(diamond_poset, 2) == [3, 4]
    assert oracle_chain_union(diamond_poset, 1) == 3
    assert oracle_chain_union(diamond_poset, 2) == 4


def test_t4b_partition_shape():
    part = gk_partition(tamari_poset("b", 4))
    assert part.parts[0] == 17
    assert part.parts[1] == 12
    assert part.size == 70
    assert sum(part.parts[2:]) == 41
    assert part.prefix(2) == 29 == chain_union_sizes(tamari_poset("b", 4), 2)[1]


def test_k_zero_rejected(diamond_poset):
    with pytest.raises(ValueError):
        max_chain_union(diamond_poset, 0)
    with pytest.raises(ValueError):
        max_antichain_union(diamond_poset, 0)
    with pytest.raises(ValueError):
        oracle_chain_union(diamond_poset, 0)


def test_partition_validation():
    with pytest.raises(ValueError):
        GKPartition((3, 4))
    with pytest.raises(ValueError):
        GKPartition((3, 0))


def test_prefix_rejects_a_negative_k():
    part = GKPartition((3, 2, 1))
    assert [part.prefix(k) for k in range(5)] == [0, 3, 5, 6, 6]
    with pytest.raises(ValueError, match="at least 0"):
        part.prefix(-1)


def test_conjugate():
    assert conjugate_partition((5, 1)) == (2, 1, 1, 1, 1)
    assert conjugate_partition((3, 3, 2)) == (3, 3, 2)
    assert GKPartition((4, 2, 1)).conjugate() == (3, 2, 1, 1)


# -- oracles -----------------------------------------------------------------------


def test_oracle_on_chain(chain_poset):
    assert oracle_chain_union(chain_poset, 1) == 3
    assert oracle_chain_union(chain_poset, 2) == 3


def test_oracle_t2b():
    assert oracle_chain_union(tamari_poset("b", 2), 2) == 6


def test_oracle_caps():
    big = Poset.from_predicate(list(range(25)), lambda a, b: a == b)
    with pytest.raises(ValueError):
        oracle_chain_union(big, 1)
    with pytest.raises(ValueError):
        oracle_max_antichain(big)


def test_max_antichain_oracle_t2b():
    assert oracle_max_antichain(tamari_poset("b", 2)) == 2


def _exhaustive_partition(p: Poset) -> tuple[int, ...]:
    """The full partition by a test-only DP over chain tops, any k."""
    order = p.topological_order()
    lt = p.leq_matrix & ~np.eye(p.n, dtype=bool)
    n = p.n

    def union(k: int) -> int:
        memo: dict[tuple[int, tuple[int, ...]], int] = {}

        def best(pos: int, tops: tuple[int, ...]) -> int:
            if pos == n:
                return 0
            key = (pos, tops)
            if key in memo:
                return memo[key]
            e = order[pos]
            value = best(pos + 1, tops)
            for slot in range(k):
                t = tops[slot]
                if t == -1 or lt[t, e]:
                    nxt = tuple(sorted(tops[:slot] + (e,) + tops[slot + 1 :]))
                    value = max(value, 1 + best(pos + 1, nxt))
            memo[key] = value
            return value

        return best(0, (-1,) * k)

    sizes: list[int] = []
    while not sizes or sizes[-1] < n:
        sizes.append(union(len(sizes) + 1))
    return tuple(a - b for a, b in zip(sizes, [0] + sizes[:-1]))


def _exhaustive_antichain_union(p: Poset, k: int) -> int:
    """Max size of a subset with no chain of k+1 elements, by subset scan."""
    order = p.topological_order()
    lt = p.leq_matrix & ~np.eye(p.n, dtype=bool)
    best = 0
    for mask in range(1 << p.n):
        members = [v for v in order if mask >> v & 1]
        if len(members) <= best:
            continue
        depth: dict[int, int] = {}
        for v in members:
            depth[v] = 1 + max((depth[u] for u in members if u in depth and lt[u, v]),
                               default=0)
        if max(depth.values()) <= k:
            best = len(members)
    return best


def test_full_partition_matches_exhaustive_dp():
    rng = random.Random(2024)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 7))
        assert gk_partition(p).parts == _exhaustive_partition(p)


def test_greene_duality_on_small_corpus():
    """Conjugate partial sums equal the exhaustive max k-antichain unions."""
    rng = random.Random(777)
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 7))
        conj = gk_partition(p).conjugate()
        for k in (1, 2, 3):
            expected = _exhaustive_antichain_union(p, k)
            assert sum(conj[:k]) == expected
            assert max_antichain_union(p, k).total == expected


# -- flow vs oracle on a random corpus ------------------------------------------------


def test_flow_matches_oracle_on_small_corpus():
    rng = random.Random(321)
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 12), rng.choice([0.2, 0.35, 0.5]))
        sizes = chain_union_sizes(p, 3)
        for k in (1, 2, 3):
            assert sizes[k - 1] == oracle_chain_union(p, k)
        part = gk_partition(p)
        assert part.size == p.n
        assert part.parts[0] == p.longest_chain_length() + 1
        assert conjugate_partition(part.parts)[0] == oracle_max_antichain(p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flow_matches_oracle_property(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    bits = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    mat = np.eye(n, dtype=bool)
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits[idx]:
                mat[i, j] = True
            idx += 1
    for k in range(n):
        for i in range(n):
            if mat[i, k]:
                mat[i] |= mat[k]
    p = Poset(list(range(n)), mat)
    sizes = chain_union_sizes(p, 2)
    assert sizes[0] == oracle_chain_union(p, 1)
    assert sizes[1] == oracle_chain_union(p, 2)


# -- families and integrality -----------------------------------------------------------


def test_chain_families_are_valid():
    rng = random.Random(17)
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 10))
        for k in (1, 2, 3):
            fam = max_chain_union(p, k)
            check_chain_family(p, fam)
            assert len(fam.chains) == k
            assert fam.total == oracle_chain_union(p, k)


def test_unit_arc_flows_are_binary():
    p = tamari_poset("b", 3)
    network = _ChainNetwork(p)
    for _ in range(3):
        network.phase(1)
    for arc in network.profit_arcs:
        assert network.net.flow_on(arc) in (0, 1)


# -- antichain side -----------------------------------------------------------------------


def test_antichain_union_on_chain(chain_poset):
    for k in (1, 2, 3):
        fam = max_antichain_union(chain_poset, k)
        check_antichain_family(chain_poset, fam)
        assert fam.total == k


def test_t2b_max_antichain():
    fam = max_antichain_union(tamari_poset("b", 2), 1)
    assert fam.total == 2


def test_antichain_union_matches_exhaustive_search():
    rng = random.Random(99)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 8))
        fam = max_antichain_union(p, 1)
        check_antichain_family(p, fam)
        assert fam.total == oracle_max_antichain(p)
        conj = gk_partition(p).conjugate()
        for k in (2, 3):
            fam_k = max_antichain_union(p, k)
            check_antichain_family(p, fam_k)
            assert fam_k.total == sum(conj[:k])
            assert len(fam_k.antichains) == k


def test_antichain_union_t3b():
    p = tamari_poset("b", 3)
    conj = gk_partition(p).conjugate()
    fam = max_antichain_union(p, 2)
    check_antichain_family(p, fam)
    assert fam.total == conj[0] + conj[1]


# -- footprint ----------------------------------------------------------------------------


@pytest.mark.parametrize("kind,n", [("b", 6), ("a", 7)])
@pytest.mark.parametrize("call", [
    gk_partition,
    lambda p: chain_union_sizes(p, 2),
    lambda p: max_chain_union(p, 2),
    lambda p: max_antichain_union(p, 2),
], ids=["gk_partition", "chain_union_sizes", "max_chain_union", "max_antichain_union"])
def test_flow_builds_no_down_rows(kind, n, call):
    # the network is indexed by element and started from the levels: no
    # row beyond the stored down rows is built for it
    p = tamari_poset.__wrapped__(kind, n)  # a fresh poset, not the cached one
    call(p)
    assert "_up" not in vars(p)


# -- posets whose extension is not index order ----------------------------------------------


def _unordered_copies() -> list[tuple[Poset, Poset]]:
    """(source, copy) pairs where the copy's extension is not index order:
    duals of Tamari lattices, and label-shuffled ``from_covers`` copies of
    seeded random posets, which the certificate orders by down-set size."""
    pairs = [(p, p.dual()) for p in (tamari_poset("b", 4), tamari_poset("b", 5), tamari_poset("a", 5))]
    rng = random.Random(2501)
    for _ in range(12):
        src = random_poset(rng, rng.randint(6, 10))
        perm = list(range(src.n))
        rng.shuffle(perm)
        pairs.append((src, Poset.from_covers(range(src.n), [(perm[u], perm[v]) for u, v in src.covers])))
    return pairs


UNORDERED = _unordered_copies()


@pytest.mark.parametrize("src,q", UNORDERED, ids=[f"{i}-n{q.n}" for i, (_, q) in enumerate(UNORDERED)])
def test_flow_on_posets_not_in_index_order(src, q):
    assert q.topological_order() != list(range(q.n))
    assert gk_partition(q) == gk_partition(src)
    for k in (1, 2, 3):
        chains = max_chain_union(q, k)
        check_chain_family(q, chains)
        assert chains.total == max_chain_union(src, k).total
        antichains = max_antichain_union(q, k)
        check_antichain_family(q, antichains)
        assert antichains.total == max_antichain_union(src, k).total
    # element v owns nodes 2 + 2v (in) and 3 + 2v (out), whatever the extension
    network = _ChainNetwork(q)
    net = network.net
    assert [net.to[a] for a in network.profit_arcs] == [3 + 2 * v for v in range(q.n)]
    for u in range(q.n):
        heads = sorted(net.to[a] for a in net.adj[3 + 2 * u] if a % 2 == 0)
        sink = [network.T] if u in q.maximal_elements() else []  # maximal elements only
        assert heads == sink + [2 + 2 * v for x, v in q.covers if x == u]
