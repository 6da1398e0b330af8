"""The three backtracking searches against reference copies of earlier versions.

``enumerate_type_b``, ``enumerate_type_a``, ``_refine_colors`` and
``find_isomorphism`` below are kept verbatim from the versions that tested
each candidate against every entry or element placed so far.  The library's
searches test a candidate only against what constrains it, and must give the
same vectors, colour vectors and mappings.
"""

import random

import numpy as np
import pytest

from tamari import Poset, tamari_poset
from tamari.elements import INF, Entry, Vector, _check_n
from tamari.elements import enumerate_type_a as lib_enumerate_type_a
from tamari.elements import enumerate_type_b as lib_enumerate_type_b
from tamari.poset import _refine_colors as lib_refine_colors
from tamari.poset import find_isomorphism as lib_find_isomorphism

from conftest import random_poset


# -- reference searches (verbatim) ---------------------------------------------


def enumerate_type_b(n: int) -> list[Vector]:
    """All valid type B vectors of length n in lexicographic order (inf greatest).

    Backtracking with prefix pruning: rule (i) is checked incrementally as
    each entry is placed, and rule (ii) is enforced by recording the forced
    positions (which always lie strictly to the right of the trigger).
    """
    _check_n(n)
    out: list[Vector] = []
    entries: list[Entry] = [0] * n
    forced = [0] * n  # count of rule-(ii) constraints demanding inf here

    def place(pos: int) -> None:
        if pos == n:
            out.append(tuple(entries))
            return
        if not forced[pos]:
            for val in range(n):
                ok = True
                for i in range(pos):
                    bound = val - (pos - i)
                    if bound >= 0 and entries[i] > bound:
                        ok = False
                        break
                if not ok:
                    continue
                entries[pos] = val
                if val >= pos + 1:
                    f = n + pos - val
                    forced[f] += 1
                    place(pos + 1)
                    forced[f] -= 1
                else:
                    place(pos + 1)
        entries[pos] = INF
        place(pos + 1)
        entries[pos] = 0

    place(0)
    return out


def enumerate_type_a(n: int) -> list[Vector]:
    """All valid type A vectors of length n in lexicographic order."""
    _check_n(n)
    out: list[Vector] = []
    entries = [0] * n

    def place(pos: int) -> None:
        if pos == n:
            out.append(tuple(entries))
            return
        for val in range(pos + 1, n + 1):
            if all(val <= entries[i] for i in range(pos) if entries[i] >= pos + 1):
                entries[pos] = val
                place(pos + 1)

    place(0)
    return out


def _refine_colors(p: Poset, q: Poset) -> tuple[list[int], list[int]] | None:
    """Iterated neighborhood refinement over the cover digraphs.

    Returns stable color vectors for both posets, or None as soon as the
    color histograms diverge (no isomorphism can exist then).
    """

    def initial(r: Poset) -> list[tuple]:
        ups, downs = r._cover_lists
        return [
            (r._down[v].bit_count(), r._up[v].bit_count(), len(downs[v]), len(ups[v]))
            for v in range(r.n)
        ]

    def step(r: Poset, colors: list[int]) -> list[tuple]:
        ups, downs = r._cover_lists
        return [
            (
                colors[v],
                tuple(sorted(colors[u] for u in ups[v])),
                tuple(sorted(colors[u] for u in downs[v])),
            )
            for v in range(r.n)
        ]

    interned: dict[tuple, int] = {}

    def intern(keys: list[tuple]) -> list[int]:
        out = []
        for k in keys:
            if k not in interned:
                interned[k] = len(interned)
            out.append(interned[k])
        return out

    pc = intern(initial(p))
    qc = intern(initial(q))
    while True:
        if sorted(pc) != sorted(qc):
            return None
        classes = len(set(pc))
        interned.clear()
        pc2 = intern(step(p, pc))
        qc2 = intern(step(q, qc))
        if sorted(pc2) != sorted(qc2):
            return None
        if len(set(pc2)) == classes:
            return pc2, qc2
        pc, qc = pc2, qc2


def find_isomorphism(p: Poset, q: Poset) -> list[int] | None:
    """Exact order-isomorphism search: refinement plus backtracking.

    Returns a mapping ``m`` with ``m[i]`` the q-index matched to p-index i,
    or None if the posets are not isomorphic.  Exhaustive, not heuristic:
    a None answer is a proof of non-isomorphism.
    """
    if p.n != q.n:
        return None
    refined = _refine_colors(p, q)
    if refined is None:
        return None
    pc, qc = refined
    candidates: dict[int, list[int]] = {}
    for j, c in enumerate(qc):
        candidates.setdefault(c, []).append(j)
    # most-constrained p-vertices first
    order = sorted(range(p.n), key=lambda v: (len(candidates.get(pc[v], ())), pc[v], v))
    pup, pdown, qup, qdown = p._up, p._down, q._up, q._down
    mapping = [-1] * p.n
    used = [False] * q.n
    mapped: list[int] = []

    # stack[d]: index of the next candidate to try for order[d]
    stack = [0]
    while stack:
        d = len(mapped)
        if d == len(order):
            return mapping
        u = order[d]
        cands = candidates.get(pc[u], ())
        above, below = pup[u], pdown[u]
        for i in range(stack[-1], len(cands)):
            x = cands[i]
            if used[x]:
                continue
            qa, qb = qup[x], qdown[x]
            if any(
                (above >> v & 1) != (qa >> mapping[v] & 1)
                or (below >> v & 1) != (qb >> mapping[v] & 1)
                for v in mapped
            ):
                continue
            stack[-1] = i + 1
            mapping[u] = x
            used[x] = True
            mapped.append(u)
            stack.append(0)
            break
        else:
            stack.pop()
            if mapped:  # undo the choice one level up
                v = mapped.pop()
                used[mapping[v]] = False
                mapping[v] = -1
    return None


# -- the library agrees with the references --------------------------------------


@pytest.mark.parametrize("n", range(1, 11))
def test_enumerators_match_reference(n):
    assert lib_enumerate_type_b(n) == enumerate_type_b(n)
    assert lib_enumerate_type_a(n) == enumerate_type_a(n)


def _assert_same_search(p: Poset, q: Poset) -> None:
    assert lib_refine_colors(p, q) == _refine_colors(p, q)
    mapping = lib_find_isomorphism(p, q)
    assert mapping == find_isomorphism(p, q)
    if mapping is not None:
        assert sorted(mapping) == list(range(q.n))
        assert sorted((mapping[u], mapping[v]) for u, v in p.covers) == q.covers


@pytest.mark.parametrize("n", range(1, 8))
def test_tamari_b_against_dual_matches_reference(n):
    p = tamari_poset("b", n)
    _assert_same_search(p, p.dual())
    sub = p.leveled_subposet().poset
    _assert_same_search(sub, sub.dual())


def _relabelled(rng: random.Random, p: Poset) -> Poset:
    perm = list(range(p.n))
    rng.shuffle(perm)
    return Poset.from_covers(range(p.n), [(perm[u], perm[v]) for u, v in p.covers])


def test_random_posets_match_reference():
    rng = random.Random(7)
    for _ in range(100):
        p = random_poset(rng, rng.randint(2, 16))
        relabelled = _relabelled(rng, p)
        covers = p.covers
        if covers:
            covers.pop(rng.randrange(len(covers)))
        else:
            covers.append((0, 1))
        mutant = Poset.from_covers(range(p.n), covers)
        for q in (relabelled, p.dual(), mutant):
            _assert_same_search(p, q)


def test_symmetric_posets_match_reference():
    # copies of one poset leave the refinement ambiguous, so the search
    # must reject candidates on covers and backtrack
    rng = random.Random(11)
    for _ in range(50):
        base = random_poset(rng, rng.randint(2, 5))
        copies = rng.randint(2, 4)
        p = Poset.from_covers(
            range(copies * base.n),
            [(u + c * base.n, v + c * base.n) for c in range(copies) for u, v in base.covers],
        )
        for q in (_relabelled(rng, p), p.dual()):
            _assert_same_search(p, q)


def test_long_chain_against_dual_matches_reference():
    n = 1500
    chain = Poset(list(range(n)), np.triu(np.ones((n, n), dtype=bool)))
    _assert_same_search(chain, chain.dual())


def test_unlinked_classes_match_reference():
    # ten 3-chains indexed bottom, top, middle: the search maps every bottom,
    # then every top before any middle links a top to its bottom, so a top
    # must be checked against the mapped elements below it, not only its
    # mapped covers, or the search tries the orderings of the tops
    copies = 10
    p = Poset.from_covers(
        range(3 * copies),
        [pair for c in range(copies) for pair in ((3 * c, 3 * c + 2), (3 * c + 2, 3 * c + 1))],
    )
    _assert_same_search(p, _relabelled(random.Random(3), p))
