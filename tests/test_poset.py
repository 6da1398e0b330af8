import random
import sys

import numpy as np
import pytest

import tamari.poset
import tamari.theorems
from conftest import random_poset
from tamari import (
    INF,
    Poset,
    PosetError,
    find_isomorphism,
    is_isomorphic,
    leq_componentwise,
    tamari_poset,
)
from tamari.theorems import shifted_level_map, verify_structure


def test_singleton_has_no_covers():
    p = Poset.from_predicate(["x"], lambda a, b: True)
    assert p.covers == []
    assert p.longest_chain_length() == 0


def test_total_order_reduces_to_consecutive_covers(chain_poset):
    assert chain_poset.covers == [(0, 1), (1, 2)]


def test_t2b_from_predicate():
    from tamari import enumerate_type_b

    p = Poset.from_predicate(enumerate_type_b(2), leq_componentwise)
    assert p.n == 6
    assert p.minimal_elements() == [p.index((0, 0))]
    assert p.maximal_elements() == [p.index((INF, INF))]
    expected = {
        ((0, 0), (0, 1)),
        ((0, 0), (INF, 0)),
        ((0, 1), (0, INF)),
        ((0, INF), (1, INF)),
        ((1, INF), (INF, INF)),
        ((INF, 0), (INF, INF)),
    }
    assert {(p.labels[u], p.labels[v]) for u, v in p.covers} == expected


# -- axiom violations -----------------------------------------------------------


def test_reflexivity_violation():
    with pytest.raises(PosetError) as err:
        Poset.from_predicate([1, 2], lambda a, b: a < b)
    assert err.value.kind == "reflexivity"


def test_antisymmetry_violation():
    with pytest.raises(PosetError) as err:
        Poset.from_predicate([1, 2], lambda a, b: True)
    assert err.value.kind == "antisymmetry"
    assert len(err.value.witness) == 2


def test_transitivity_violation():
    order = {(1, 2), (2, 3)}
    with pytest.raises(PosetError) as err:
        Poset.from_predicate([1, 2, 3], lambda a, b: a == b or (a, b) in order)
    assert err.value.kind == "transitivity"
    assert err.value.witness == (1, 2, 3)


def test_cyclic_covers_rejected():
    with pytest.raises(PosetError):
        Poset.from_covers([0, 1], [(0, 1), (1, 0)])


# -- chains and levels -------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(2, 4), (4, 16)])
def test_longest_chain_length_tnb(n, expected):
    assert tamari_poset("b", n).longest_chain_length() == expected


def test_level_map_modes(chain_poset):
    assert chain_poset.level_map("lowest").levels == (0, 1, 2)
    assert chain_poset.level_map("highest").levels == (0, 1, 2)
    with pytest.raises(ValueError):
        chain_poset.level_map("sideways")


def test_level_map_antichain_plus_bottom():
    p = Poset.from_covers(list("abc"), [(0, 1), (0, 2)])
    assert p.level_map("lowest").levels == (0, 1, 1)


def test_level_of_small_unleveled_element():
    p = tamari_poset("b", 4)
    assert p.level_map("lowest")[p.index((0, 0, 1, 0))] == 1


@pytest.mark.parametrize("mode", ["lowest", "highest"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fibers_are_antichains(n, mode):
    p = tamari_poset("b", n)
    for members in p.level_map(mode).fibers().values():
        for a in members:
            for b in members:
                assert a == b or not p.leq(a, b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leveled_elements_agree_in_both_modes(n):
    p = tamari_poset("b", n)
    low = p.level_map("lowest")
    high = p.level_map("highest")
    for v in p.leveled_subposet().members:
        assert low[v] == high[v]


def test_lowest_level_recursion():
    rng = random.Random(7)
    for _ in range(30):
        p = random_poset(rng, rng.randint(1, 8))
        low = p.level_map("lowest").levels
        cov = p.cover_matrix
        for v in range(p.n):
            parents = np.nonzero(cov[:, v])[0]
            if parents.size == 0:
                assert low[v] == 0
            else:
                assert low[v] == 1 + max(low[int(u)] for u in parents)


def _longest_path_levels(p: Poset) -> dict[str, tuple[int, ...]]:
    """All three level maps from longest chains over the strict relation,
    walked in ascending order of the number of elements below."""
    strict = p.leq_matrix & ~np.eye(p.n, dtype=bool)
    order = sorted(range(p.n), key=lambda v: int(strict[:, v].sum()))
    below, above = [0] * p.n, [0] * p.n
    for v in order:
        below[v] = max((below[u] + 1 for u in np.nonzero(strict[:, v])[0]), default=0)
    for v in reversed(order):
        above[v] = max((above[w] + 1 for w in np.nonzero(strict[v])[0]), default=0)
    top = max(below)
    return {
        "lowest": tuple(below),
        "highest": tuple(top - a for a in above),
        "shifted": tuple(b if b + a == top else b + 1 for b, a in zip(below, above)),
    }


def test_level_maps_are_longest_paths():
    rng = random.Random(16)
    posets = []
    for _ in range(30):
        p = random_poset(rng, rng.randint(1, 12))
        shuffled = list(range(p.n))
        rng.shuffle(shuffled)
        # relabelled so that index order is no linear extension
        posets += [p, p.dual(), Poset.from_covers(shuffled, [(shuffled.index(u), shuffled.index(v))
                                                             for u, v in p.covers])]
    posets += [tamari_poset(kind, n) for kind in "ab" for n in range(1, 7)]
    for p in posets:
        for mode, levels in _longest_path_levels(p).items():
            assert p.level_map(mode).levels == levels


def test_level_maps_build_no_down_rows():
    p = tamari_poset.__wrapped__("b", 5)  # a fresh poset, not the cached one
    shifted_level_map(p)
    p.level_map("highest")
    assert "_up" not in vars(p)


# -- leveled subposet ----------------------------------------------------------------


def test_total_order_is_fully_leveled(chain_poset):
    assert chain_poset.leveled_subposet().members == (0, 1, 2)


def test_t4b_leveled_members_count():
    assert len(tamari_poset("b", 4).leveled_subposet().members) == 28


def test_t5b_leveled_level_size_histogram():
    sizes = list(tamari_poset("b", 5).leveled_subposet().level_sizes().values())
    assert sizes.count(1) == 6
    assert sizes.count(2) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_leveled_subposet_cover_structure(n):
    """Non-extreme members must cover a member one level down and be covered
    one level up, within the induced order."""
    p = tamari_poset("b", n)
    sub = p.leveled_subposet()
    levels = sub.levels
    top = max(levels.values())
    members = sub.members
    for v in members:
        if levels[v] < top:
            assert any(
                levels[w] == levels[v] + 1 and p.leq(v, w) for w in members
            )
        if levels[v] > 0:
            assert any(
                levels[w] == levels[v] - 1 and p.leq(w, v) for w in members
            )


# -- duality and isomorphism -----------------------------------------------------------


def test_dual_reverses_three_chain(chain_poset):
    d = chain_poset.dual()
    assert d.covers == [(1, 0), (2, 1)]


def test_dual_is_involution():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 8))
        assert (p.dual().dual().leq_matrix == p.leq_matrix).all()


def test_isomorphic_to_itself(diamond_poset):
    mapping = find_isomorphism(diamond_poset, diamond_poset)
    assert mapping is not None


def test_chain_vs_antichain(chain_poset):
    antichain = Poset.from_predicate([0, 1, 2], lambda a, b: a == b)
    assert not is_isomorphic(chain_poset, antichain)


def test_isomorphism_found_after_relabeling():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 8)
        p = random_poset(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        mat = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                mat[perm[i], perm[j]] = p.leq_matrix[i, j]
        q = Poset(list(range(n)), mat)
        mapping = find_isomorphism(p, q)
        assert mapping is not None
        for i in range(n):
            for j in range(n):
                assert p.leq(i, j) == q.leq(mapping[i], mapping[j])


def test_t4b_not_isomorphic_to_dual():
    p = tamari_poset("b", 4)
    assert not is_isomorphic(p, p.dual())


def test_t4b_leveled_subposet_is_self_dual():
    sub = tamari_poset("b", 4).leveled_subposet().poset
    assert is_isomorphic(sub, sub.dual())


@pytest.mark.parametrize("n", range(3, 8))
def test_remarks_tell_tamari_b_from_its_dual_by_level_pairs(monkeypatch, n):
    p = tamari_poset.__wrapped__("b", n)  # a fresh poset, not the cached one
    refine = tamari.poset._refine_colors

    def refine_leveled_only(a, b):
        if a is p:
            raise AssertionError(f"T_{n}^B against its dual reached the refinement")
        return refine(a, b)

    monkeypatch.setattr(tamari.poset, "_refine_colors", refine_leveled_only)
    monkeypatch.setattr(tamari.theorems, "tamari_poset", lambda kind, m: p)
    duality, core, _ = verify_structure(n)
    assert duality.data == {"self_dual": False}
    assert core.status == "verified"
    assert "_up" not in vars(p)


def test_equal_level_pairs_still_reach_the_refinement(monkeypatch):
    # the N poset and two disjoint 2-chains: two minimal and two maximal
    # elements each, all on a longest chain, yet not isomorphic
    n_poset = Poset.from_covers(range(4), [(0, 2), (1, 2), (1, 3)])
    chains = Poset.from_covers(range(4), [(0, 2), (1, 3)])
    assert n_poset._level_arrays == chains._level_arrays == ([0, 0, 1, 1], [1, 1, 0, 0])
    calls = []
    refine = tamari.poset._refine_colors
    monkeypatch.setattr(
        tamari.poset, "_refine_colors", lambda a, b: calls.append((a, b)) or refine(a, b)
    )
    assert find_isomorphism(n_poset, chains) is None
    assert calls == [(n_poset, chains)]


# -- reconstruction --------------------------------------------------------------------


def test_from_covers_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 8))
        q = Poset.from_covers(p.labels, p.covers)
        assert (q.leq_matrix == p.leq_matrix).all()


def test_isomorphism_of_long_chain_keeps_recursion_limit():
    n = 1500
    chain = Poset(list(range(n)), np.triu(np.ones((n, n), dtype=bool)))
    limit = sys.getrecursionlimit()
    mapping = find_isomorphism(chain, chain.dual())
    assert sys.getrecursionlimit() == limit
    assert mapping == list(range(n - 1, -1, -1))
