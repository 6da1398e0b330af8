"""Builders turning the enumerated Tamari elements into Poset objects."""

from __future__ import annotations

from functools import lru_cache

from .elements import enumerate_type_a, enumerate_type_b
from .poset import Poset

# Poset building stops at n = 7 although enumeration runs further: the rows
# of T_8^B take only about 20 MB, but its Greene-Kleitman flow takes a minute.
POSET_MAX_N = 7


@lru_cache(maxsize=16)
def tamari_poset(kind: str, n: int) -> Poset:
    """The Tamari lattice of the given kind ("a" or "b") as a Poset.

    Elements are the lexicographically ordered tuples from the enumerators;
    the order is componentwise comparison.  Per coordinate, the elements
    holding at least each value form a bitset, and an element's up-set is
    the intersection of its n "at least" sets; the result is validated like
    any other poset.  Results are cached (posets are immutable), so repeated
    verification runs share the same object.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > POSET_MAX_N:
        raise ValueError(
            f"n={n} exceeds the poset cap {POSET_MAX_N}; the chain flow "
            "beyond it takes about a minute"
        )
    if kind == "b":
        elements = enumerate_type_b(n)
    elif kind == "a":
        elements = enumerate_type_a(n)
    else:
        raise ValueError(f"kind must be 'a' or 'b', got {kind!r}")
    up = [-1] * len(elements)
    for c in range(n):
        holding: dict = {}
        for i, e in enumerate(elements):
            holding[e[c]] = holding.get(e[c], 0) | 1 << i
        at_least = 0
        for value in sorted(holding, reverse=True):
            at_least |= holding[value]
            holding[value] = at_least
        up = [row & holding[e[c]] for row, e in zip(up, elements)]
    return Poset._from_rows(elements, up)
