"""The down-row store against a reference copy of the up-row store.

``_componentwise_rows``, ``_cover_certificate``, ``_walk_covers`` and
``_validate_order`` below, with the helpers they call, are kept verbatim
from the version that stored each order as up-set rows (bit j of row i iff
i <= j) and certified it by walking them from the top.  The library stores
down-set rows and walks them from the bottom; it must give the same cover
lists, the same up relation, the same extension wherever index order is
one, and the same ``PosetError`` message, kind and witness for every
relation that is not an order.  Where index order is no linear extension,
the fallback walk orders the elements by ascending down-set size, where
the reference ordered them by descending up-set size.
"""

from __future__ import annotations

import random
import sys
from functools import reduce
from operator import and_, getitem, itemgetter, or_
from typing import Iterator, Sequence

import numpy as np
import pytest

import tamari.poset
from tamari import Poset, PosetError, tamari_poset
from tamari.elements import INF

from conftest import random_poset
from test_certificate import dense_violation, random_posets, shuffled, tamari_posets


# -- reference up-row store (verbatim) ----------------------------------------------


# truth values 0 and 1, as bytes, to binary digits
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits(row: int) -> Iterator[int]:
    """The indices of the set bits of ``row``, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _two_step(up: list[int]) -> Iterator[int]:
    """The relation composed with itself, row by row: row i is the OR of
    ``up[k]`` over the k in ``up[i]``.  Lazy, so a scan for the first row it
    changes stops there; only a relation that failed the cover certificate
    is scanned."""
    return (reduce(or_, map(up.__getitem__, _bits(row)), 0) for row in up)



def _selected(rows: list[int], idx: list[int]) -> list[int]:
    """Rows ``idx`` restricted to the columns ``idx`` and renumbered, so bit
    q of row p is bit ``idx[q]`` of ``rows[idx[p]]``.  Each row is read as a
    binary string, never as a matrix."""
    if not idx:
        return []
    n = len(rows)
    pick = itemgetter(*[n - 1 - j for j in reversed(idx)])
    return [int("".join(pick(format(rows[i], f"0{n}b"))), 2) for i in idx]


def _by_up_size(up: list[int]) -> list[int]:
    """The indices in descending up-set size, index order among equals: a
    linear extension of any partial order, since a strictly smaller element
    has a strictly larger up-set: the certificate's fallback."""
    return sorted(range(len(up)), key=[-row.bit_count() for row in up].__getitem__)



def _cover_certificate(up: list[int]) -> tuple[list[list[int]], Sequence[int]] | None:
    """Each element's ascending upper covers and the linear extension they
    were certified along, if the rows form a partial order, else None.

    The rows are walked down index order (:func:`_walk_covers`), and the
    extension is ``range(n)``; only if that walk fails are they walked again
    down :func:`_by_up_size`, which is a linear extension of any partial
    order, so the second walk fails exactly when the relation is not one.
    """
    ups = _walk_covers(up)
    if ups is not None:
        return ups, range(len(up))
    order = _by_up_size(up)
    ups = _walk_covers(_selected(up, order))
    if ups is None:
        return None
    out: list[list[int]] = [[]] * len(up)
    for i, covers in enumerate(ups):
        out[order[i]] = sorted(order[j] for j in covers)
    return out, order


def _walk_covers(rows: list[int]) -> list[list[int]] | None:
    """Each element's ascending upper covers if index order is a linear
    extension of a partial order given by the rows, else None.

    The elements are walked from the top.  For each element, the lowest
    strict successor not yet reached from the covers found so far is its
    next cover.  The element's up-set must then be exactly the union of its
    covers' up-sets.  The up-sets above it were certified first, so by
    induction the relation is transitive iff every check passes; reflexivity
    and antisymmetry follow from each row's lowest bit being its own.
    """
    index = list(range(len(rows)))  # one int object per element, shared by the lists naming it
    ups: list[list[int]] = [[]] * len(rows)
    for i in reversed(index):
        above = rows[i] ^ 1 << i
        if not above:
            continue
        # above's lowest bit is at most i unless the row's lowest bit is i;
        # checked first, so every row met below is certified and holds its own bit
        j = (above & -above).bit_length() - 1
        if j <= i:
            return None
        covers = [index[j]]
        reached = rows[j]
        rest = above ^ above & reached
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append(index[j])
            reached |= rows[j]
            rest ^= rest & rows[j]
        if reached != above:
            return None
        ups[i] = covers
    return ups



def _antisymmetry_error(labels: list, i: int, j: int) -> PosetError:
    return PosetError(
        f"relation is not antisymmetric: {labels[i]!r} <= {labels[j]!r} and back",
        kind="antisymmetry",
        witness=(labels[i], labels[j]),
    )



def _validate_order(labels: list, up: list[int]) -> tuple[list[list[int]], Sequence[int]]:
    """Return the upper covers and the extension of :func:`_cover_certificate`.

    A relation that fails the cover certificate is scanned row by row for
    the first violated axiom (reflexivity, then antisymmetry, then
    transitivity) and its first witness in row-major order, which is raised
    as a :class:`PosetError`.
    """
    certified = _cover_certificate(up)
    if certified is not None:
        return certified
    for i, row in enumerate(up):
        if not row >> i & 1:
            raise PosetError(
                f"relation is not reflexive at {labels[i]!r}",
                kind="reflexivity",
                witness=(labels[i],),
            )
    for i, row in enumerate(up):
        for j in _bits(row ^ 1 << i):
            if up[j] >> i & 1:
                raise _antisymmetry_error(labels, i, j)
    # reflexive, so each two-step row holds its row, and a bit more where transitivity fails
    i, two = next((i, two) for i, two in enumerate(_two_step(up)) if two != up[i])
    j = next(_bits(two ^ up[i]))
    k = next(k for k in _bits(up[i]) if up[k] >> j & 1)
    raise PosetError(
        f"relation is not transitive: {labels[i]!r} <= {labels[k]!r} <= "
        f"{labels[j]!r} but not {labels[i]!r} <= {labels[j]!r}",
        kind="transitivity",
        witness=(labels[i], labels[k], labels[j]),
    )


def _componentwise_rows(vectors: list) -> list[int]:
    """Up-set rows of the componentwise order on equal-length vectors.

    Per coordinate, the vectors holding at least each value form a bitset,
    filled in a bytearray down the values; each row is then built once, as
    the intersection of its vector's sets.
    """
    width = len(vectors[0]) if vectors else 0
    if any(len(v) != width for v in vectors):
        raise PosetError("vectors of different lengths are not ordered componentwise")
    at_least: list[dict] = []
    for c in range(width):
        holding: dict = {}
        for i, v in enumerate(vectors):
            holding.setdefault(v[c], []).append(i)
        bits = bytearray((len(vectors) + 7) // 8)
        for value in sorted(holding, reverse=True):
            for i in holding[value]:
                bits[i >> 3] |= 1 << (i & 7)
            holding[value] = int.from_bytes(bits, "little")
        at_least.append(holding)
    everything = (1 << len(vectors)) - 1
    return [reduce(and_, map(getitem, at_least, v), everything) for v in vectors]


# -- helpers -------------------------------------------------------------------------


def dense(rows: list[int], n: int) -> np.ndarray:
    """Bit j of row i at ``[i, j]``, unpacked independently of the library."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").astype(bool)


def rows_of(m: np.ndarray) -> list[int]:
    """Row i's set bits j where ``m[i, j]``: the inverse of :func:`dense`."""
    return [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little") for r in m]


def up_rows(m: np.ndarray) -> list[int]:
    """Up-set rows of a dense relation, as the reference's constructor read them."""
    return [int(bytes(map(bool, row))[::-1].translate(_DIGITS), 2) for row in m]


def is_extension(order: Sequence[int], up: list[int]) -> bool:
    at = {v: i for i, v in enumerate(order)}
    return sorted(at) == list(range(len(up))) and all(
        at[i] <= at[j] for i, row in enumerate(up) for j in _bits(row)
    )


def reference_views(up: list[int]) -> tuple:
    """The cover lists and extension the reference certified ``up`` with."""
    ups, order = _cover_certificate(up)
    downs: list[list[int]] = [[] for _ in ups]
    for u, vs in enumerate(ups):
        for v in vs:
            downs[v].append(u)
    return (ups, downs), order


def check_store(q: Poset, up: list[int]) -> None:
    """q is certified as the reference certifies the up rows ``up``."""
    cover_lists, order = reference_views(up)
    assert q._cover_lists == cover_lists
    assert q._down == rows_of(dense(up, q.n).T)
    assert q._up == up
    if order == range(q.n):
        assert q._extension == range(q.n)
    else:  # the fallback: ascending down-set size, index order among equals
        assert is_extension(q._extension, up)
        sizes = [row.bit_count() for row in q._down]
        assert list(q._extension) == sorted(range(q.n), key=sizes.__getitem__)


def fresh(kind: str, n: int) -> Poset:
    return tamari_poset.__wrapped__(kind, n)  # not the cached poset: no view built yet


def random_dag(rng: random.Random, n: int, edge_prob: float) -> np.ndarray:
    """A transitively closed random relation that index order extends."""
    m = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = rng.random() < edge_prob
    for k in range(n):
        for i in range(n):
            if m[i, k]:
                m[i] |= m[k]
    return m


def permuted(m: np.ndarray, perm: list[int]) -> np.ndarray:
    """The relation with element u renamed perm[u]."""
    inv = np.argsort(perm)
    return m[np.ix_(inv, inv)]


# -- valid orders ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["a", "b"])
@pytest.mark.parametrize("n", range(1, 8))
def test_tamari_orders_match_the_up_row_store(kind, n):
    p = fresh(kind, n)
    up = _componentwise_rows(p.labels)
    assert tamari.poset._componentwise_rows(p.labels) == p._down
    check_store(p, up)
    assert p._extension == range(p.n)
    # the dual takes the source's views swapped and its extension reversed
    d = fresh(kind, n).dual()
    down = rows_of(dense(up, p.n).T)
    assert d._up == down and d._down == up
    assert d._cover_lists == p._cover_lists[::-1]
    assert list(d._extension) == list(range(p.n))[::-1]
    # a relabeled copy shares whichever rows are built, and builds none
    q = fresh(kind, n)
    r = q.relabeled(list(range(q.n)))
    assert vars(r)["_down"] is vars(q)["_down"] and "_up" not in vars(r)
    assert r._cover_lists is q._cover_lists and r._extension is q._extension
    # the leveled subposet is certified from the selected rows
    members = list(p.leveled_subposet().members)
    check_store(p.leveled_subposet().poset, _selected(up, members))


def test_triangular_rows_take_at_most_six_tenths_of_the_up_rows():
    p = fresh("b", 7)
    assert all(p._down[i].bit_length() == i + 1 for i in range(p.n))
    down_bytes = sum(map(sys.getsizeof, p._down))
    assert down_bytes <= 0.6 * sum(map(sys.getsizeof, p._up))


def test_random_orders_and_shuffled_copies_match_the_up_row_store():
    rng = random.Random(2701)
    for _ in range(60):
        n = rng.randint(1, 40)
        m = random_dag(rng, n, rng.choice([0.05, 0.2, 0.5]))
        p = Poset(list(range(n)), m)
        check_store(p, up_rows(m))
        check_store(Poset.from_predicate(list(range(n)), lambda a, b: bool(m[a, b])), up_rows(m))
        perm = rng.sample(range(n), n)
        shuffled = permuted(m, perm)
        ref_ups, _ = _cover_certificate(up_rows(m))
        covers = [(perm[u], perm[v]) for u, vs in enumerate(ref_ups) for v in vs]
        rng.shuffle(covers)
        check_store(Poset.from_covers(range(n), covers), up_rows(shuffled))
        check_store(Poset(list(range(n)), shuffled), up_rows(shuffled))
        check_store(p.dual().dual(), up_rows(m))


def test_relations_of_the_certificate_tests_match_the_up_row_store():
    for p in random_posets() + tamari_posets():
        m = p.leq_matrix
        check_store(Poset(list(range(p.n)), m), up_rows(m))


def test_a_column_of_many_values_matches_the_up_row_store():
    # 600 distinct values in the first coordinate: the rank codes take three rounds of 255
    rng = random.Random(2702)
    vectors = sorted({(rng.randrange(600), rng.choice([0, 1, 2, INF])) for _ in range(1500)})
    assert len({v[0] for v in vectors}) > 255
    for vs in (vectors, rng.sample(vectors, len(vectors))):
        up = _componentwise_rows(vs)
        assert tamari.poset._componentwise_rows(vs) == rows_of(dense(up, len(vs)).T)
        check_store(Poset.from_vectors(vs), up)
    column = [(rng.randrange(300),) for _ in range(400)]  # repeated values: no order
    assert tamari.poset._componentwise_rows(column) == rows_of(
        dense(_componentwise_rows(column), len(column)).T
    )


# -- relations that are not orders ---------------------------------------------------


def reference_error(labels: list, m: np.ndarray) -> tuple:
    with pytest.raises(PosetError) as err:
        _validate_order(labels, up_rows(m))
    return str(err.value), err.value.kind, err.value.witness


def check_refusal(m: np.ndarray) -> None:
    labels = [f"e{i}" for i in range(len(m))]
    expected = reference_error(labels, m)
    nested = m.tolist()
    index = {label: i for i, label in enumerate(labels)}
    for build in (
        lambda: Poset(labels, m),
        lambda: Poset(labels, nested),
        lambda: Poset.from_predicate(labels, lambda a, b: nested[index[a]][index[b]]),
    ):
        with pytest.raises(PosetError) as err:
            build()
        assert (str(err.value), err.value.kind, err.value.witness) == expected
    assert expected[1] == dense_violation(m)[0]


def broken_relations() -> list[np.ndarray]:
    """The perturbed orders of tests/test_certificate.py (its seeds 99 and
    57), and the ten-element chain missing its longest pair."""
    out = []
    for seed, count, top in ((99, 200, 30), (57, 120, 25)):
        rng = random.Random(seed)
        for _ in range(count):
            p = random_poset(rng, rng.randint(2, top))
            leq = (shuffled(p, rng) if rng.random() < 0.5 else p).leq_matrix.copy()
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(p.n), rng.randrange(p.n)
                leq[i, j] = not leq[i, j]
            out.append(leq)
    chain = np.triu(np.ones((10, 10), dtype=bool))
    chain[0, 9] = False
    out.append(chain)
    return [m for m in out if dense_violation(m) is not None]


def test_refusals_of_the_certificate_tests_match_the_up_row_store():
    broken = broken_relations()
    kinds = {dense_violation(m)[0] for m in broken}
    assert kinds == {"reflexivity", "antisymmetry", "transitivity"}
    for m in broken:
        check_refusal(m)


def test_random_non_orders_are_refused_as_the_up_row_store_refuses_them():
    rng = random.Random(2703)
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 30)
        density = rng.choice([0.02, 0.1, 0.3, 0.7])
        m = np.array([[rng.random() < density for _ in range(n)] for _ in range(n)], dtype=bool)
        if rng.random() < 0.7:
            m |= np.eye(n, dtype=bool)  # reflexive, so the later axioms are reached
        if dense_violation(m) is None:
            continue
        check_refusal(m)
        kinds.add(dense_violation(m)[0])
    assert kinds == {"reflexivity", "antisymmetry", "transitivity"}


def test_repeated_vectors_are_refused_as_the_up_row_store_refuses_them():
    for vectors in ([(0, 1), (1, 2), (0, 1)], [(0, 1), (1, INF), (0, 1)], [(), ()]):
        with pytest.raises(PosetError) as expected:
            _validate_order(vectors, _componentwise_rows(vectors))
        with pytest.raises(PosetError) as err:
            Poset.from_vectors(vectors)
        assert (str(err.value), err.value.kind, err.value.witness) == (
            str(expected.value), expected.value.kind, expected.value.witness
        )
