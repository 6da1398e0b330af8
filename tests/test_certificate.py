"""The cover certificate against dense matrix-product oracles.

Validation, covers and ``from_covers`` closures are computed on bitset rows
without any matrix product; the oracles here recompute them with float64
matrix products (test-only code) and must agree exactly, errors included.
"""

import json
import random

import numpy as np
import pytest

import tamari.poset
from conftest import random_poset
from tamari import Poset, PosetError, tamari_poset, verify_claims
from tamari.io import document_to_poset, poset_document


def _square(m: np.ndarray) -> np.ndarray:
    f = m.astype(np.float64)  # path counts stay exact far beyond these sizes
    return (f @ f) > 0.5


def dense_covers(leq: np.ndarray) -> np.ndarray:
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    return strict & ~_square(strict)


def dense_closure(covers, n: int) -> np.ndarray:
    reach = np.eye(n, dtype=bool)
    for u, v in covers:
        reach[u, v] = True
    while True:
        nxt = reach | _square(reach)
        if (nxt == reach).all():
            return reach
        reach = nxt


def dense_violation(leq: np.ndarray):
    """(kind, witness indices) of the first violated axiom, or None."""
    n = leq.shape[0]
    diag = np.diagonal(leq)
    if not diag.all():
        return "reflexivity", (int(np.nonzero(~diag)[0][0]),)
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        return "antisymmetry", tuple(int(x) for x in np.argwhere(sym)[0])
    bad = _square(leq) & ~leq
    if bad.any():
        i, j = (int(x) for x in np.argwhere(bad)[0])
        k = int(np.nonzero(leq[i] & leq[:, j])[0][0])
        return "transitivity", (i, k, j)
    return None


def shuffled(p: Poset, rng: random.Random) -> Poset:
    """An isomorphic copy with the indices permuted (index order is then
    usually no linear extension)."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    inv = np.argsort(perm)
    return Poset(list(range(p.n)), p.leq_matrix[np.ix_(inv, inv)])


def random_posets():
    rng = random.Random(2024)
    out = []
    for _ in range(30):
        p = random_poset(rng, rng.randint(1, 60), edge_prob=rng.choice([0.05, 0.2, 0.5]))
        out.append(p)
        out.append(shuffled(p, rng))
    return out


def tamari_posets():
    return [tamari_poset(kind, n) for kind in "ab" for n in range(1, 7)]


def check_against_oracle(p: Poset) -> None:
    expected = [(int(u), int(v)) for u, v in np.argwhere(dense_covers(p.leq_matrix))]
    assert p.covers == expected
    assert (p.cover_matrix == dense_covers(p.leq_matrix)).all()
    q = Poset.from_covers(p.labels, p.covers)
    assert (q.leq_matrix == dense_closure(p.covers, p.n)).all()
    assert (q.leq_matrix == p.leq_matrix).all()
    assert q.covers == p.covers


def test_covers_and_closure_match_dense_oracle_on_random_posets():
    for p in random_posets():
        check_against_oracle(p)


def test_covers_and_closure_match_dense_oracle_on_tamari():
    for p in tamari_posets():
        check_against_oracle(p)


def test_strict_relation_as_covers_gives_true_covers():
    rng = random.Random(11)
    for p in random_posets()[:10] + [tamari_poset("b", 4), shuffled(tamari_poset("a", 5), rng)]:
        strict = [(int(u), int(v)) for u, v in np.argwhere(p.leq_matrix & ~np.eye(p.n, dtype=bool))]
        rng.shuffle(strict)
        q = Poset.from_covers(p.labels, strict)
        assert (q.leq_matrix == p.leq_matrix).all()
        assert q.covers == p.covers


def test_dual_covers_are_swapped_pairs():
    for p in random_posets()[:12] + tamari_posets():
        d = p.dual()
        assert d.covers == sorted((v, u) for u, v in p.covers)
        assert (d.cover_matrix == dense_covers(d.leq_matrix)).all()


def test_induced_covers_are_certified_lazily():
    rng = random.Random(3)
    for p in random_posets()[:12] + [tamari_poset("b", 5)]:
        idx = sorted(rng.sample(range(p.n), rng.randint(1, p.n)))
        sub = p.induced(idx)
        expected = [(int(u), int(v)) for u, v in np.argwhere(dense_covers(sub.leq_matrix))]
        assert sub.covers == expected


def test_three_cycle_of_covers_is_antisymmetry():
    with pytest.raises(PosetError) as err:
        Poset.from_covers(list("abcd"), [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert err.value.kind == "antisymmetry"
    assert err.value.witness == ("a", "b")


def test_cover_cycles_name_the_dense_witness():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 25)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.08]
        labels = [f"x{i}" for i in range(n)]
        reach = dense_closure(pairs, n)
        expected = dense_violation(reach)
        if expected is None:
            q = Poset.from_covers(labels, pairs)
            assert (q.leq_matrix == reach).all()
            continue
        with pytest.raises(PosetError) as err:
            Poset.from_covers(labels, pairs)
        assert err.value.kind == expected[0] == "antisymmetry"
        assert err.value.witness == tuple(labels[i] for i in expected[1])


def test_long_cover_cycles_are_named_without_dense_rows(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense witness search on a cyclic cover list")

    monkeypatch.setattr(tamari.poset, "_bool_rows", forbidden)
    monkeypatch.setattr(tamari.poset, "_two_step", forbidden)
    n = 20_000
    # a chain with two back arcs: cycles on 12000..15000 and on 19900..19999
    covers = [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 100), (15_000, 12_000)]
    with pytest.raises(PosetError) as err:
        Poset.from_covers([f"x{i}" for i in range(n)], covers)
    assert err.value.kind == "antisymmetry"
    assert err.value.witness == ("x12000", "x12001")


def test_chain_missing_its_longest_pair_is_intransitive():
    n = 10
    leq = np.triu(np.ones((n, n), dtype=bool))
    leq[0, 9] = False
    with pytest.raises(PosetError) as err:
        Poset(list(range(n)), leq)
    assert err.value.kind == "transitivity"
    a, k, b = err.value.witness
    assert leq[a, k] and leq[k, b] and not leq[a, b]
    assert (a, k, b) == (0, 1, 9)


def test_broken_relations_raise_the_dense_kind_and_witness():
    rng = random.Random(99)
    seen = set()
    for _ in range(200):
        p = random_poset(rng, rng.randint(2, 30))
        if rng.random() < 0.5:
            p = shuffled(p, rng)
        leq = p.leq_matrix.copy()
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(p.n), rng.randrange(p.n)
            leq[i, j] = not leq[i, j]
        labels = [f"e{i}" for i in range(p.n)]
        expected = dense_violation(leq)
        if expected is None:
            q = Poset(labels, leq)
            assert q.covers == [(int(u), int(v)) for u, v in np.argwhere(dense_covers(leq))]
            seen.add(None)
            continue
        with pytest.raises(PosetError) as err:
            Poset(labels, leq)
        assert err.value.kind == expected[0]
        assert err.value.witness == tuple(labels[i] for i in expected[1])
        seen.add(expected[0])
    assert seen == {None, "reflexivity", "antisymmetry", "transitivity"}


def test_fiber_check_names_the_first_comparable_pair():
    p = tamari_poset("b", 3)
    rng = random.Random(8)
    for _ in range(20):
        levels = [rng.randrange(4) for _ in range(p.n)]
        doc = json.loads(json.dumps(poset_document(p)))
        doc["levels"] = {str(i): lv for i, lv in enumerate(levels)}
        fibers: dict[int, list[int]] = {}
        for i, lv in enumerate(levels):
            fibers.setdefault(lv, []).append(i)
        expected = None
        for members in fibers.values():
            for a in members:
                for b in members:
                    if expected is None and a != b and p.leq(a, b):
                        expected = (doc["elements"][a], doc["elements"][b])
        if expected is None:
            document_to_poset(doc)
            continue
        with pytest.raises(ValueError) as err:
            document_to_poset(doc)
        assert str(err.value) == (
            f"level fiber is not an antichain: {expected[0]!r} <= {expected[1]!r}"
        )
    # a second key for one element is refused before any fiber is checked
    doc = json.loads(json.dumps(poset_document(p)))
    doc["levels"] = {"0": 0, "00": 0, "1": 1}
    with pytest.raises(ValueError, match="level key '00'"):
        document_to_poset(doc)


# -- no dense matrix product on any valid input ----------------------------------


def test_valid_inputs_never_multiply_matrices(monkeypatch):
    def forbidden(m):
        raise AssertionError("dense matrix product on a valid order")

    monkeypatch.setattr(tamari.poset, "_two_step", forbidden)
    tamari_poset.cache_clear()
    try:
        for kind in "ab":
            for n in range(1, 7):
                p = tamari_poset(kind, n)
                q = Poset.from_covers(p.labels, p.covers)
                assert (q.leq_matrix == p.leq_matrix).all()
                assert p.dual().covers == sorted((v, u) for u, v in p.covers)
                sub = p.induced(range(0, p.n, 2))
                assert (sub.cover_matrix == dense_covers(sub.leq_matrix)).all()
                sub = p.induced(p.leveled_elements())
                assert max(sub.level_map().levels) == max(p.level_map().levels)
        reports = verify_claims("all", [4, 5])
        assert reports and all(r.status != "refuted" for r in reports)
    finally:
        tamari_poset.cache_clear()


def test_t7b_covers_change_one_coordinate():
    p = tamari_poset("b", 7)
    covers = p.covers
    assert len(covers) == 12012 == 7 * p.n // 2
    for u, v in covers:
        a, b = p.labels[u], p.labels[v]
        assert sum(x != y for x, y in zip(a, b)) == 1


# -- failure witnesses from the rows alone ------------------------------------------


def _rows(m: np.ndarray) -> list[int]:
    return [sum(1 << int(j) for j in np.nonzero(r)[0]) for r in m]


def test_two_step_is_the_dense_square():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 40)
        m = np.array([[rng.random() < rng.choice([0.05, 0.2]) for _ in range(n)] for _ in range(n)])
        assert list(tamari.poset._two_step(_rows(m))) == _rows(_square(m))


def test_violations_are_named_without_a_dense_matrix(monkeypatch):
    rng = random.Random(57)
    broken = []
    for _ in range(120):
        p = random_poset(rng, rng.randint(2, 25))
        leq = (shuffled(p, rng) if rng.random() < 0.5 else p).leq_matrix.copy()
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(p.n), rng.randrange(p.n)
            leq[i, j] = not leq[i, j]
        if dense_violation(leq) is not None:
            broken.append((leq, dense_violation(leq)))

    def forbidden(*args):
        raise AssertionError("dense witness search")

    monkeypatch.setattr(tamari.poset, "_bool_rows", forbidden)
    seen = set()
    for leq, (kind, witness) in broken:
        labels, nested = list(range(len(leq))), leq.tolist()
        builds = [
            lambda: Poset(labels, leq),
            lambda: Poset(labels, nested),
            lambda: Poset.from_predicate(labels, lambda a, b: nested[a][b]),
        ]
        for build in builds:
            with pytest.raises(PosetError) as err:
                build()
            assert (err.value.kind, err.value.witness) == (kind, witness)
        seen.add(kind)
    assert seen == {"reflexivity", "antisymmetry", "transitivity"}
    with pytest.raises(PosetError) as err:
        Poset.from_vectors([(0, 1), (1, 2), (0, 1)])
    assert (err.value.kind, err.value.witness) == ("antisymmetry", ((0, 1), (0, 1)))
    with pytest.raises(PosetError) as err:
        Poset.from_predicate([1, 2, 3], lambda a, b: a == b or (a, b) in {(1, 2), (2, 3)})
    assert (err.value.kind, err.value.witness) == ("transitivity", (1, 2, 3))
