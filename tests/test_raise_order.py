"""The explicit raise orders against a reference copy of the greedy walk.

``_bumped``, ``_walk`` and ``_leveled_labels`` below are kept verbatim from
the version that found both extremal chains by search: the first chain by
raising the rightmost position whose raise stays a valid element, the
second by raising the leftmost position whose raise stays in the leveled
subposet of ``T_n^B``.  The library writes both chains down from their raise
orders, with no search and no poset; it must give the same chains, element
for element, wherever the search can run (up to the poset cap).
"""

from __future__ import annotations

from typing import Callable, Sequence

import pytest

from tamari import first_chain, second_chain, tamari_poset
from tamari.elements import INF, Vector, entry_sum, format_vector, is_type_b


# -- reference greedy walk (verbatim) ------------------------------------------------


def _bumped(v: Vector, pos: int, n: int) -> Vector | None:
    """One increment step at ``pos``: x -> x+1, n-1 -> inf, inf -> dead end."""
    e = v[pos]
    if e == INF:
        return None
    bumped = INF if e == n - 1 else e + 1
    return v[:pos] + (bumped,) + v[pos + 1 :]


def _walk(start: Vector, end: Vector, positions: Sequence[int],
          allowed: Callable[[Vector], bool]) -> list[Vector]:
    """The greedy chain from ``start`` up to ``end``.

    Each step increments the first position, in ``positions`` order, whose
    increment is ``allowed``.  A step raises the entry sum by exactly one, so
    a walk that reaches ``end`` has entry_sum(end) - entry_sum(start) + 1
    elements, and a walk that grows longer has passed ``end``.
    """
    n = len(start)
    length = entry_sum(end) - entry_sum(start) + 1
    cur = start
    out = [cur]
    while cur != end:
        if len(out) == length:
            raise RuntimeError(f"chain from {format_vector(start)} passed {format_vector(end)}")
        for pos in positions:
            cand = _bumped(cur, pos, n)
            if cand is not None and allowed(cand):
                cur = cand
                out.append(cur)
                break
        else:
            raise RuntimeError(f"no incrementable position at {format_vector(cur)}")
    return out


def _leveled_labels(n: int) -> frozenset[Vector]:
    p = tamari_poset("b", n)
    return frozenset(p.labels[i] for i in p.leveled_elements())


# -- the reference chains -------------------------------------------------------------


def reference_first_chain(n: int) -> list[Vector]:
    return _walk((0,) * n, (INF,) * n, range(n - 1, -1, -1), is_type_b)


def reference_second_chain(n: int, with_prefix: bool = False) -> list[Vector]:
    start: Vector = (0,) * (n - 2) + (1, 2)
    end: Vector = (n - 2, n - 1) + (INF,) * (n - 2)
    out = _walk(start, end, range(n), _leveled_labels(n).__contains__)
    if with_prefix:
        out.insert(0, (0,) * (n - 2) + (1, 0))
    return out


# -- the raise orders give the searched chains ----------------------------------------


@pytest.mark.parametrize("n", range(2, 8))
def test_first_chain_is_the_rightmost_valid_walk(n):
    assert first_chain(n) == reference_first_chain(n)


@pytest.mark.parametrize("with_prefix", [False, True])
@pytest.mark.parametrize("n", range(4, 8))
def test_second_chain_is_the_leftmost_leveled_walk(n, with_prefix):
    assert second_chain(n, with_prefix) == reference_second_chain(n, with_prefix)
