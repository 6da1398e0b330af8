"""Builders turning the enumerated Tamari elements into Poset objects."""

from __future__ import annotations

import math
from functools import lru_cache

from .elements import enumerate_type_a, enumerate_type_b
from .poset import Poset

# One cap gates every poset command (lambda, verify, export) and the
# read-back of Tamari documents, though it tracks the cost of none but
# lambda's full chain partition (`lambda --type b --n 8` takes about 3.2 s at
# 57 MB with the cap raised, and the flow of `T_9^B` about 25 s; README,
# "Current figures"); verify runs no flow for n >= 4, export never does, and
# a document is refused above it before any element is listed.
POSET_MAX_N = 7


def family_name(kind: str, n: int) -> str:
    """``T_n^B`` for kind "b", ``T_n`` for kind "a", as messages name them."""
    return f"T_{n}^B" if kind == "b" else f"T_{n}"


def family_size(kind: str, n: int) -> int:
    """|T_n^B| = C(2n, n) and |T_n| = Catalan(n), from n alone."""
    central = math.comb(2 * n, n)
    return central if kind == "b" else central // (n + 1)


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
