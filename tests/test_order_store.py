"""The bitset-row order store against the dense readers it replaced.

Each ``dense_*`` function below is the earlier matrix implementation of a
``Poset`` reader, kept here as a reference; the row-based readers must agree
with it exactly on random posets, index-shuffled copies and the Tamari
families.  ``topological_order`` is checked to be a linear extension of the
dense order instead, since it returns the one the certificate walked.
``find_isomorphism`` is cross-checked against networkx on Hasse
diagrams, and a guard test shows that no valid-input path unpacks the order
into a dense matrix.
"""

import json
import random
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import DiGraphMatcher

import tamari.poset
from conftest import random_poset
from tamari import (
    INF,
    Poset,
    PosetError,
    find_isomorphism,
    gk_partition,
    is_lattice,
    leq_componentwise,
    max_antichain_union,
    max_chain_union,
    tamari_poset,
    verify_claims,
)
from tamari.elements import enumerate_type_b
from tamari.io import document_to_poset, dumps_document, poset_document, poset_to_dot
from tamari.theorems import shifted_level_map


# -- dense references ------------------------------------------------------------


def dense_is_linear_extension(p: Poset, order: list[int]) -> bool:
    """Whether ``order`` lists each element once, after every element below it."""
    if sorted(order) != list(range(p.n)):
        return False
    return not np.tril(p.leq_matrix[np.ix_(order, order)], -1).any()


def dense_minimal_elements(p: Poset) -> list[int]:
    strict = p.leq_matrix & ~np.eye(p.n, dtype=bool)
    return [int(i) for i in np.nonzero(~strict.any(axis=0))[0]]


def dense_maximal_elements(p: Poset) -> list[int]:
    strict = p.leq_matrix & ~np.eye(p.n, dtype=bool)
    return [int(i) for i in np.nonzero(~strict.any(axis=1))[0]]


def dense_induced(p: Poset, idx: list[int]) -> np.ndarray:
    return p.leq_matrix[np.ix_(idx, idx)]


def dense_dual(p: Poset) -> np.ndarray:
    return p.leq_matrix.T


def dense_first_comparable_pair(p: Poset, members: list[int]):
    """The fiber check as the document reader did it: first hit in row-major
    order over the member list, an element never compared with itself."""
    idx = np.array(members)
    bad = p.leq_matrix[np.ix_(idx, idx)] & (idx[:, None] != idx[None, :])
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return int(idx[i]), int(idx[j])


def dense_first_comparable_in_parts(p: Poset, parts: list[list[int]]):
    """The dense first pair of the first part that has one."""
    for members in parts:
        bad = dense_first_comparable_pair(p, members)
        if bad is not None:
            return bad
    return None


# -- posets under test -------------------------------------------------------------


def shuffled(p: Poset, rng: random.Random) -> Poset:
    perm = list(range(p.n))
    rng.shuffle(perm)
    inv = np.argsort(perm)
    return Poset(list(range(p.n)), p.leq_matrix[np.ix_(inv, inv)])


def sample_posets():
    rng = random.Random(606)
    out = []
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 40), edge_prob=rng.choice([0.05, 0.15, 0.4]))
        out += [p, shuffled(p, rng)]
    out += [tamari_poset(kind, n) for kind in "ab" for n in range(1, 7)]
    out += [shuffled(tamari_poset(kind, n), rng) for kind in "ab" for n in (3, 4)]
    return out


SAMPLES = sample_posets()


def test_topological_order_matches_dense():
    # the certified extension: index order exactly when that is one
    for p in SAMPLES:
        order = p.topological_order()
        assert dense_is_linear_extension(p, order)
        assert (order == list(range(p.n))) == dense_is_linear_extension(p, list(range(p.n)))
        assert p.dual().topological_order() == order[::-1]


def test_extremal_elements_match_dense():
    for p in SAMPLES:
        assert p.minimal_elements() == dense_minimal_elements(p)
        assert p.maximal_elements() == dense_maximal_elements(p)


def test_induced_matches_dense():
    rng = random.Random(1)
    for p in SAMPLES:
        for _ in range(3):
            idx = rng.sample(range(p.n), rng.randint(1, p.n))
            if rng.random() < 0.5:
                idx.sort()
            sub = p.induced(idx)
            assert sub.labels == [p.labels[i] for i in idx]
            assert (sub.leq_matrix == dense_induced(p, idx)).all()


def test_dual_matches_dense():
    for p in SAMPLES:
        d = p.dual()
        assert (d.leq_matrix == dense_dual(p)).all()
        assert dense_is_linear_extension(d, d.topological_order())
        assert d.topological_order() == p.topological_order()[::-1]
        assert (d.dual().leq_matrix == p.leq_matrix).all()


def _views(p: Poset) -> tuple:
    return p.covers, p._cover_lists, p._level_arrays, p._up, p._down


def test_dual_shares_what_a_rebuild_derives():
    for p in SAMPLES:
        q = Poset._from_rows(p.labels, p._down)  # no up rows built yet
        lazy = q.dual()
        assert "_down" not in vars(lazy)
        rebuilt = Poset._from_rows(p.labels, q._up)
        shared = q.dual()
        assert vars(shared)["_down"] is q._up
        for d in (lazy, shared):
            assert _views(d) == _views(rebuilt)
            assert _views(d.dual()) == _views(q)


def test_certificate_lists_flatten_to_the_sorted_covers():
    for p in SAMPLES:
        (ups, downs), order = tamari.poset._cover_certificate(p._down)
        assert list(order) == p.topological_order()
        assert ups == p._cover_lists[0]
        assert all(us == sorted(us) for us in downs)
        lt = p.leq_matrix & ~np.eye(p.n, dtype=bool)
        strict = lt.astype(np.float64)
        dense = lt & ~((strict @ strict) > 0.5)
        pairs = sorted((u, v) for v, us in enumerate(downs) for u in us)
        assert pairs == [(int(u), int(v)) for u, v in np.argwhere(dense)] == p.covers


def test_cover_pairs_are_derived_when_first_read():
    p = tamari_poset.__wrapped__("b", 7)
    d = p.dual()
    assert find_isomorphism(p, d) is None  # reads the cover lists and levels only
    assert "_cover_pairs" not in vars(p) and "_cover_pairs" not in vars(d)
    covers = p.covers
    assert "_cover_pairs" in vars(p) and "_cover_pairs" not in vars(d)
    assert d.closure_mismatch([(v, u) for u, v in covers]) == (None, None)
    assert "_cover_pairs" in vars(d)


def test_covers_are_the_sorted_pairs_of_the_cover_lists():
    for p in SAMPLES:
        for q in (p, p.dual()):
            ups, downs = q._cover_lists
            pairs = sorted((u, v) for u, vs in enumerate(ups) for v in vs)
            assert pairs == sorted((u, v) for v, us in enumerate(downs) for u in us)
            assert q.covers == pairs
        assert p.dual().covers == sorted((v, u) for u, v in p.covers)


def brute_first_comparable_pair(p: Poset, members: list[int]):
    for a in members:
        for b in members:
            if a != b and p.leq(a, b):
                return a, b
    return None


def test_first_comparable_pair_matches_a_brute_force_scan():
    rng = random.Random(4)
    for p in SAMPLES:
        for _ in range(10):
            members = [rng.randrange(p.n) for _ in range(rng.randint(1, min(p.n, 8)))]
            repeated = members + rng.sample(members, rng.randint(1, len(members)))
            rng.shuffle(repeated)
            for part in (members, repeated, members[:1] * 3):
                assert p.first_comparable_pair(part) == brute_first_comparable_pair(p, part)


def test_first_comparable_pair_matches_dense_fiber_check():
    rng = random.Random(2)
    parts_rng = random.Random(3)  # its own stream: the member lists do not depend on it
    for p in SAMPLES:
        for _ in range(10):
            # duplicates model two document keys naming one element
            members = [rng.randrange(p.n) for _ in range(rng.randint(1, min(p.n, 8)))]
            assert p.first_comparable_pair(members) == dense_first_comparable_pair(p, members)
        # the parts form: random lists of random member lists
        fibers = list(p.level_map("lowest").fibers().values())
        for _ in range(10):
            parts = [
                [parts_rng.randrange(p.n) for _ in range(parts_rng.randint(1, min(p.n, 8)))]
                for _ in range(parts_rng.randint(0, 5))
            ]
            # antichain parts first, so a hit may come only in a late part
            if parts_rng.random() < 0.5:
                parts = fibers + parts
            expected = dense_first_comparable_in_parts(p, parts)
            assert p.first_comparable_in_parts(parts) == expected
            assert p.first_comparable_in_parts(iter(parts)) == expected


def test_level_fibers_are_antichains_by_both_checks():
    for p in SAMPLES:
        for mode in ("lowest", "highest"):
            for members in p.level_map(mode).fibers().values():
                assert p.first_comparable_pair(members) is None
                assert dense_first_comparable_pair(p, members) is None


def reference_shifted_levels(p: Poset) -> tuple[int, ...]:
    """The shifted map as it was built outside the store: lowest levels,
    every element off the leveled subposet raised by one."""
    low = p.level_map("lowest").levels
    members = set(p.leveled_subposet().members)
    return tuple(lv if i in members else lv + 1 for i, lv in enumerate(low))


def test_shifted_level_map_matches_the_leveled_construction():
    for p in SAMPLES:
        shifted = p.level_map("shifted")
        assert shifted.mode == "shifted"
        assert shifted.levels == reference_shifted_levels(p)


# -- one store -------------------------------------------------------------------------


def test_from_vectors_matches_the_componentwise_predicate():
    rng = random.Random(77)
    symbols = (0, 1, 2, 3, INF)
    for _ in range(60):
        width = rng.randint(1, 4)
        draws = [tuple(rng.choice(symbols) for _ in range(width)) for _ in range(rng.randint(1, 40))]
        vectors = list(dict.fromkeys(draws))
        p = Poset.from_vectors(vectors)
        q = Poset.from_predicate(vectors, leq_componentwise)
        assert p.labels == q.labels == vectors
        assert p.covers == q.covers
        assert (p.leq_matrix == q.leq_matrix).all()


def test_from_vectors_peaks_near_its_rows():
    # each row is built once, and no cover pair is listed: the traced peak
    # stays within twice the stored down rows (1.97 times; the up-row store
    # peaked at 3.11 times the down rows' size)
    vectors = enumerate_type_b(7)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        p = Poset.from_vectors(vectors)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    rows = sum(sys.getsizeof(r) for r in p._down)
    assert peak < 2.0 * rows, f"peak {peak} bytes for {rows} bytes of rows"


def test_from_vectors_rejects_a_repeated_vector():
    with pytest.raises(PosetError) as err:
        Poset.from_vectors([(0, 1), (1, INF), (0, 1)])
    assert err.value.kind == "antisymmetry"
    assert err.value.witness == ((0, 1), (0, 1))


def test_from_vectors_rejects_mixed_lengths():
    with pytest.raises(PosetError, match="different lengths"):
        Poset.from_vectors([(0, 1), (0, 1, 2)])


def _closes_to(p: Poset, pairs: list) -> bool:
    """Whether ``from_covers`` rebuilds exactly ``p`` from the pairs."""
    try:
        return Poset.from_covers(p.labels, pairs).covers == p.covers
    except PosetError:  # a cycle
        return False


def test_closure_mismatch_needs_strict_pairs_that_include_the_covers():
    rng = random.Random(78)
    samples = [random_poset(rng, rng.randint(1, 12)) for _ in range(40)]
    for p in samples + [tamari_poset(kind, n) for kind in "ab" for n in range(1, 7)]:
        covers = [list(pair) for pair in p.covers]
        strict = [[u, v] for u in range(p.n) for v in range(p.n) if u != v and p.leq(u, v)]
        loose = [[u, v] for u in range(p.n) for v in range(p.n) if u != v and not p.leq(u, v)]
        shuffled = rng.sample(covers, len(covers))
        redundant = covers + rng.sample(strict, min(5, len(strict)))
        passing = [covers, shuffled + [[0, 0]], redundant[::-1]]
        for pairs in passing:  # redundant pairs, shuffled pairs and self-loops
            assert p.closure_mismatch(pairs) == (None, None)
        failing = []
        for i in rng.sample(range(len(covers)), min(3, len(covers))):  # a dropped cover
            dropped = covers[:i] + covers[i + 1 :]
            assert p.closure_mismatch(dropped) == (None, p.covers[i])
            failing.append(dropped)
        for u, v in rng.sample(loose, min(3, len(loose))):  # a pair outside the order
            assert p.closure_mismatch(redundant + [[u, v]]) == ((u, v), None)
            failing.append(covers + [[u, v]])
        for pairs in passing + failing:
            assert (p.closure_mismatch(pairs) == (None, None)) == _closes_to(p, pairs)


def test_closure_mismatch_names_the_least_of_each():
    p = tamari_poset("b", 3)
    loose = [(u, v) for u in range(p.n) for v in range(p.n) if u != v and not p.leq(u, v)]
    pairs = [list(pair) for pair in p.covers[2:]] + [list(pair) for pair in loose[-3:]]
    assert p.closure_mismatch(pairs) == (loose[-3], p.covers[0])


@pytest.mark.parametrize("bad", [[True, 0], [0.0, 0], [0, 20], [-1, 0], [0], [0, 0, 0], "00", 0])
def test_closure_mismatch_refuses_a_bad_pair_as_from_covers_does(bad):
    p = tamari_poset("b", 3)
    pairs = [list(pair) for pair in p.covers] + [bad]
    with pytest.raises(PosetError) as want:
        Poset.from_covers(p.labels, pairs)
    with pytest.raises(PosetError) as got:
        p.closure_mismatch(pairs)
    assert str(got.value) == str(want.value)


def _arrays(p: Poset) -> list[str]:
    return [k for k, v in vars(p).items() if isinstance(v, np.ndarray)]


def test_posets_keep_rows_not_matrices():
    p = tamari_poset("b", 4)
    built = [
        Poset(list(range(p.n)), p.leq_matrix),
        Poset.from_covers(p.labels, p.covers),
        Poset.from_predicate(list("abc"), lambda a, b: a <= b),
        p.dual(),
        p.induced(range(0, p.n, 3)),
        p.leveled_subposet().poset,
    ]
    for q in built + [tamari_poset.__wrapped__("a", 5)]:
        assert _arrays(q) == []
    assert "leq_matrix" in vars(p)  # a view, once asked for, is cached


# -- isomorphism against networkx ---------------------------------------------------


def hasse(p: Poset) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(p.n))
    g.add_edges_from(p.covers)
    return g


def check_isomorphism(p: Poset, q: Poset) -> None:
    mapping = find_isomorphism(p, q)
    assert (mapping is not None) == DiGraphMatcher(hasse(p), hasse(q)).is_isomorphic()
    if mapping is not None:
        assert sorted(mapping) == list(range(q.n))
        assert all(
            p.leq(i, j) == q.leq(mapping[i], mapping[j]) for i in range(p.n) for j in range(p.n)
        )


def relabelled(p: Poset, rng: random.Random) -> Poset:
    perm = list(range(p.n))
    rng.shuffle(perm)
    return Poset.from_covers(list(range(p.n)), [(perm[u], perm[v]) for u, v in p.covers])


def one_cover_mutant(p: Poset, rng: random.Random) -> Poset:
    """Drop one cover, or rewire it to another forward pair of the index order
    (which is a linear extension of ``random_poset`` outputs)."""
    covers = list(p.covers)
    covers.pop(rng.randrange(len(covers)))
    if rng.random() < 0.5:
        u, v = sorted(rng.sample(range(p.n), 2))
        covers.append((u, v))
    return Poset.from_covers(p.labels, covers)


def test_isomorphism_matches_networkx_on_random_posets():
    rng = random.Random(66)
    for _ in range(60):
        p = random_poset(rng, rng.randint(2, 14), edge_prob=rng.choice([0.1, 0.25, 0.5]))
        check_isomorphism(p, relabelled(p, rng))
        if p.covers:
            check_isomorphism(p, one_cover_mutant(p, rng))
        check_isomorphism(p, p.dual())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_isomorphism_matches_networkx_on_tamari_duals(n):
    p = tamari_poset("b", n)
    check_isomorphism(p, p.dual())
    sub = p.leveled_subposet().poset
    check_isomorphism(sub, sub.dual())


def _counting_refinement(monkeypatch) -> list:
    """Record what each call of the colour refinement returns."""
    results = []
    refine = tamari.poset._refine_colors

    def counted(p, q):
        results.append(refine(p, q))
        return results[-1]

    monkeypatch.setattr(tamari.poset, "_refine_colors", counted)
    return results


def test_backtracking_proves_crowns_non_isomorphic(monkeypatch):
    # one 8-element crown against two 4-element crowns: every element has the
    # same chain lengths, degrees and stable colour, so only the exhausted
    # backtracking can answer
    big = Poset.from_covers(range(8), [(i, 4 + j) for i in range(4) for j in (i, (i + 1) % 4)])
    two = Poset.from_covers(range(8), [(0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7)])
    results = _counting_refinement(monkeypatch)
    check_isomorphism(big, two)
    assert find_isomorphism(big, two) is None
    assert len(results) == 2 and all(r is not None for r in results)


def test_refinement_round_splits_the_histograms(monkeypatch):
    # the same (down-set, up-set, lower-cover, upper-cover) counts on both
    # sides; only a refinement round sees that the big maximum of p covers
    # the big minimum while q's covers two small ones
    p = Poset.from_covers(range(6), [(0, 3), (0, 4), (1, 3), (2, 5)])
    q = Poset.from_covers(range(6), [(0, 3), (0, 4), (1, 5), (2, 5)])

    def first_colours(r):
        return sorted(
            (sum(r.leq(j, v) for j in range(r.n)), sum(r.leq(v, j) for j in range(r.n)),
             sum(1 for _, w in r.covers if w == v), sum(1 for u, _ in r.covers if u == v))
            for v in range(r.n)
        )

    def chain_lengths(r):
        return sorted(zip(r.level_map("lowest").levels, r.level_map("highest").levels))

    assert first_colours(p) == first_colours(q)
    assert chain_lengths(p) == chain_lengths(q)
    results = _counting_refinement(monkeypatch)
    check_isomorphism(p, q)
    assert results == [None]


# -- no dense unpacking on any valid input --------------------------------------------


def test_valid_inputs_never_unpack_the_order(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense N x N view built on a valid-input path")

    monkeypatch.setattr(tamari.poset, "_bool_rows", forbidden)
    monkeypatch.setattr(Poset, "cover_matrix", property(forbidden))
    tamari_poset.cache_clear()
    try:
        reports = verify_claims("all", range(2, 8))
        assert reports and all(r.status != "refuted" for r in reports)
        for kind in "ab":
            p = tamari_poset(kind, 5)
            assert sum(gk_partition(p).parts) == p.n
            assert max_chain_union(p, 2).total > 0
            for k in (1, 2):
                assert max_antichain_union(p, k).total > 0
            assert is_lattice(p)
            for n in range(1, 7):
                p = tamari_poset(kind, n)
                levels = shifted_level_map(p)
                text = dumps_document(poset_document(p, kind=f"tamari_{kind}", levels=levels))
                assert poset_to_dot(p, levels=levels)
                q = document_to_poset(json.loads(text))
                assert q.covers == p.covers
    finally:
        tamari_poset.cache_clear()
