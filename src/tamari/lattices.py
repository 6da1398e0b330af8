"""Builders turning the enumerated Tamari elements into Poset objects."""

from __future__ import annotations

from functools import lru_cache

from .elements import enumerate_type_a, enumerate_type_b
from .poset import Poset

# One cap gates every poset command (lambda, verify, export), though it
# tracks the cost of none but lambda's full chain partition (about half a
# minute on T_8^B); verify runs no flow for n >= 4 and export never does.
POSET_MAX_N = 7


@lru_cache(maxsize=16)
def tamari_poset(kind: str, n: int) -> Poset:
    """The Tamari lattice of the given kind ("a" or "b") as a Poset.

    Elements are the lexicographically ordered tuples from the enumerators,
    ordered componentwise (:meth:`Poset.from_vectors`).  Results are cached
    (posets are immutable), so repeated verification runs share the same
    object.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > POSET_MAX_N:
        raise ValueError(
            f"n={n} exceeds the poset cap {POSET_MAX_N}, which gates every "
            "poset command"
        )
    if kind == "b":
        return Poset.from_vectors(enumerate_type_b(n))
    if kind == "a":
        return Poset.from_vectors(enumerate_type_a(n))
    raise ValueError(f"kind must be 'a' or 'b', got {kind!r}")
